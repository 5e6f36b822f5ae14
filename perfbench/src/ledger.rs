//! The traced run's per-layer ledger: the metrics of
//! [`crate::report::PER_LAYER`], a table that splits the traced wall
//! time by layer with an explicit unattributed remainder, and the
//! isolated replays that time the inner layers on a workload's own
//! inputs.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use hds_core::{OptimizerConfig, RunMode, RunReport, Session, SessionBuilder, Snapshot};
use hds_dfsm::Matcher;
use hds_memsim::{MemStats, MemorySystem};
use hds_sequitur::Sequitur;
use hds_trace::{AccessKind, DataRef, SymbolTable};
use hds_vulcan::{Event, Procedure};

use crate::probe::{SpanTimes, Timer, WallObserver};
use crate::report::PER_LAYER;
use crate::stats::ratio;

/// Per-layer values and the wall-time split of one traced run.
#[derive(Debug, Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
    /// `(layer, ms, nested)`: time attributed to each layer; nested
    /// rows are parts of the row above them and are not summed.
    rows: Vec<(String, f64, bool)>,
    /// Busy milliseconds of the traced run the rows split.
    pub traced_ms: f64,
    /// Busy milliseconds of the untraced run of the same work.
    pub untraced_ms: f64,
    /// Notes printed under the table.
    pub notes: Vec<String>,
}

impl Ledger {
    /// Sets a per-layer metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, value);
    }

    /// Adds a top-level row of the wall-time split.
    pub fn row(&mut self, layer: &str, ms: f64) {
        self.rows.push((layer.to_string(), ms, false));
    }

    /// Adds a row that is part of the one before it.
    pub fn part(&mut self, layer: &str, ms: f64) {
        self.rows.push((layer.to_string(), ms, true));
    }

    /// The traced time no top-level row accounts for.
    #[must_use]
    pub fn unattributed_ms(&self) -> f64 {
        self.traced_ms - self.rows.iter().filter(|r| !r.2).map(|r| r.1).sum::<f64>()
    }

    /// Every per-layer metric, in [`PER_LAYER`] order; a layer this
    /// workload never runs reads 0.
    #[must_use]
    pub fn values(&mut self) -> Vec<f64> {
        let unattributed = self.unattributed_ms();
        self.set("ledger.unattributed_ms", unattributed);
        PER_LAYER
            .iter()
            .map(|(name, _)| self.values.get(name).copied().unwrap_or(0.0))
            .collect()
    }

    /// The wall-time split as text.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = format!(
            "ledger: traced busy {:.1} ms, untraced {:.1} ms\n",
            self.traced_ms, self.untraced_ms
        );
        for (layer, ms, nested) in &self.rows {
            let indent = if *nested { "    of which " } else { "  " };
            out += &format!(
                "{indent}{layer:<34} {ms:>10.1} ms {:>6.1}%\n",
                100.0 * ratio(*ms, self.traced_ms)
            );
        }
        out += &format!(
            "  {:<34} {:>10.1} ms {:>6.1}%\n",
            "unattributed",
            self.unattributed_ms(),
            100.0 * ratio(self.unattributed_ms(), self.traced_ms)
        );
        for note in &self.notes {
            out += &format!("  note: {note}\n");
        }
        out
    }

    /// Sets the metrics read from run reports: simulated cycles per
    /// stage, cache and prefetch statistics, per-cycle averages.
    pub fn set_reports(&mut self, reports: &[RunReport]) {
        let mut mem = MemStats::default();
        let (mut memory, mut checks, mut recording, mut analysis) = (0u64, 0u64, 0u64, 0u64);
        let (mut matching, mut optimize, mut checks_executed) = (0u64, 0u64, 0u64);
        let (mut traced, mut grammar, mut streams, mut states, mut procs, mut cycles) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        for r in reports {
            let m = &r.mem;
            mem.l1_hits += m.l1_hits;
            mem.l1_misses += m.l1_misses;
            mem.l2_hits += m.l2_hits;
            mem.l2_misses += m.l2_misses;
            mem.prefetches_issued += m.prefetches_issued;
            mem.prefetches_useful += m.prefetches_useful;
            let b = &r.breakdown;
            memory += b.memory;
            checks += b.checks;
            recording += b.recording;
            analysis += b.analysis;
            matching += b.matching;
            optimize += b.optimize;
            checks_executed += r.checks_executed;
            for c in &r.cycles {
                cycles += 1;
                traced += c.traced_refs;
                grammar += c.grammar_size as u64;
                streams += c.hot_streams as u64;
                states += c.dfsm_states as u64;
                procs += c.procs_modified as u64;
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let per_cycle = |x: u64| ratio(x as f64, cycles as f64);
        #[allow(clippy::cast_precision_loss)]
        let f = |x: u64| x as f64;
        self.set("memsim.l1_miss_rate", mem.l1_miss_rate());
        self.set(
            "memsim.l2_miss_rate",
            ratio(f(mem.l2_misses), f(mem.l2_hits + mem.l2_misses)),
        );
        self.set("memsim.prefetch_accuracy", mem.prefetch_accuracy());
        self.set("memsim.sim_memory_cycles", f(memory));
        self.set("bursty.checks", f(checks_executed));
        self.set("bursty.traced_refs", f(traced));
        self.set("bursty.sim_check_cycles", f(checks));
        self.set("sequitur.grammar_size", per_cycle(grammar));
        self.set("sequitur.sim_recording_cycles", f(recording));
        self.set("hotstream.streams", per_cycle(streams));
        self.set("hotstream.sim_analysis_cycles", f(analysis));
        self.set("dfsm.states", per_cycle(states));
        self.set("dfsm.sim_matching_cycles", f(matching));
        self.set("vulcan.procs_modified", per_cycle(procs));
        self.set("vulcan.sim_optimize_cycles", f(optimize));
    }

    /// Sets the executor metrics a [`CoreReplay`] measured.
    pub fn set_core(&mut self, core: &CoreReplay) {
        let boundary = core.boundary();
        self.set("core.event_ns", core.event().mean(1e9));
        self.set("core.boundary_ms", boundary.mean(1e3));
        #[allow(clippy::cast_precision_loss)]
        self.set("core.boundaries", boundary.calls as f64);
        #[allow(clippy::cast_precision_loss)]
        self.set(
            "core.snapshot_bytes",
            ratio(
                core.spans.snapshot_bytes as f64,
                core.spans.snapshots as f64,
            ),
        );
        self.set("core.resume_ms", core.resume.mean(1e3));
        self.set("dfsm.build_ms", core.spans.dfsm_build.mean(1e3));
        self.set("vulcan.edit_ms", core.spans.image_edit.mean(1e3));
    }

    /// Sets the metrics the isolated layer replays measured.
    pub fn set_layers(&mut self, layers: &LayerReplay) {
        self.set("memsim.access_ns", layers.access.mean(1e9));
        self.set("sequitur.append_ns", layers.append.mean(1e9));
        self.set("hotstream.analyze_ms", layers.analyze.mean(1e3));
        self.set("dfsm.step_ns", layers.step.mean(1e9));
    }
}

/// Executor timings from sessions fed one timed chunk at a time.
///
/// A chunk during which no phase boundary passed times ordinary
/// `on_event` calls. A chunk that crossed `k` boundaries is charged
/// its ordinary calls at the ordinary mean; the rest of its time goes
/// to its `k` boundary calls. Timing chunks rather than calls keeps
/// the timer's own cost out of the numbers.
#[derive(Debug, Default)]
pub struct CoreReplay {
    /// Chunks that crossed no boundary: their time and events.
    plain: Timer,
    /// Chunks that crossed one: their time, events and boundaries.
    crossing: Timer,
    crossing_events: u64,
    boundaries: u64,
    /// Span times and snapshot counts the observer saw.
    pub spans: SpanTimes,
    /// `SessionBuilder::resume` on captured snapshots.
    pub resume: Timer,
}

/// A session whose observer stamps wall time on its spans.
pub type TracedSession = Session<WallObserver>;

/// Builds a traced session.
#[must_use]
pub fn traced_session(
    config: &OptimizerConfig,
    mode: RunMode,
    procedures: Vec<Procedure>,
    checkpoints: bool,
) -> TracedSession {
    let builder = SessionBuilder::new(config.clone())
        .procedures(procedures)
        .observer(WallObserver::default());
    let builder = if checkpoints {
        builder.checkpoints()
    } else {
        builder
    };
    builder.mode(mode).build()
}

impl CoreReplay {
    /// Feeds one chunk, timing it as a whole.
    pub fn feed(&mut self, session: &mut TracedSession, chunk: &[Event]) {
        let before = session.observer().times.transitions;
        let start = Instant::now();
        for &e in chunk {
            session.on_event(e);
        }
        let took = start.elapsed();
        let crossed = session.observer().times.transitions - before;
        let timer = if crossed == 0 {
            &mut self.plain
        } else {
            self.crossing_events += chunk.len() as u64;
            self.boundaries += crossed;
            &mut self.crossing
        };
        timer.total += took;
        timer.calls += chunk.len() as u64;
    }

    /// Calls that crossed no phase boundary.
    #[must_use]
    pub fn event(&self) -> Timer {
        self.plain
    }

    /// Calls that crossed one: the crossing chunks' time less their
    /// ordinary calls at the ordinary mean.
    #[must_use]
    pub fn boundary(&self) -> Timer {
        #[allow(clippy::cast_precision_loss)]
        let ordinary = (self.crossing_events - self.boundaries) as f64 * self.plain.mean(1.0);
        Timer {
            total: self
                .crossing
                .total
                .saturating_sub(std::time::Duration::from_secs_f64(ordinary)),
            calls: self.boundaries,
        }
    }

    /// Time in every chunk fed.
    #[must_use]
    pub fn fed_ms(&self) -> f64 {
        self.plain.ms() + self.crossing.ms()
    }

    /// Finishes a session, keeping its span times; returns the report
    /// and image digest.
    pub fn finish(&mut self, session: TracedSession, name: &str) -> (RunReport, u64) {
        self.spans.add(&session.observer().times);
        let digest = session.image_digest();
        (session.finish(name), digest)
    }

    /// Times resuming from `snapshot` under the config it was taken
    /// with.
    pub fn time_resume(
        &mut self,
        config: &OptimizerConfig,
        mode: RunMode,
        procedures: &[Procedure],
        snapshot: &Snapshot,
    ) -> bool {
        let builder = SessionBuilder::new(config.clone())
            .procedures(procedures.to_vec())
            .checkpoints()
            .mode(mode);
        let start = Instant::now();
        let resumed = builder.resume(snapshot);
        self.resume.stop(start);
        black_box(resumed).is_ok()
    }
}

/// Per-call times of the inner layers, replayed in isolation.
#[derive(Debug, Default)]
pub struct LayerReplay {
    /// `MemorySystem::access_at`.
    pub access: Timer,
    /// `Sequitur::append`.
    pub append: Timer,
    /// `hotstream::fast::analyze`, per awake-phase window.
    pub analyze: Timer,
    /// `Matcher::observe`.
    pub step: Timer,
}

/// The data references among `events`.
pub fn refs_of(events: &[Event], out: &mut Vec<(DataRef, AccessKind)>) {
    out.extend(events.iter().filter_map(|e| match *e {
        Event::Access(r, kind) => Some((r, kind)),
        _ => None,
    }));
}

impl LayerReplay {
    /// Replays one program's references through the memory hierarchy,
    /// and window by window through Sequitur, the hot-stream analysis
    /// and a matcher built from the previous window's streams.
    pub fn replay(
        &mut self,
        config: &OptimizerConfig,
        refs: &[(DataRef, AccessKind)],
        window: usize,
    ) {
        let mut mem = MemorySystem::new(config.hierarchy.clone());
        let mut now = 0u64;
        let start = Instant::now();
        for &(r, kind) in refs {
            now += mem.access_at(r.addr, kind, now).cycles;
        }
        self.access.total += start.elapsed();
        self.access.calls += refs.len() as u64;
        black_box(now);

        let mut matcher_streams: Vec<Vec<DataRef>> = Vec::new();
        for w in refs.chunks(window.max(1)) {
            if !matcher_streams.is_empty() {
                if let Ok(dfsm) = hds_dfsm::build(&matcher_streams, &config.dfsm) {
                    let mut matcher = Matcher::new(&dfsm);
                    let start = Instant::now();
                    for &(r, _) in w {
                        black_box(matcher.observe(r));
                    }
                    self.step.total += start.elapsed();
                    self.step.calls += w.len() as u64;
                }
            }
            let mut symbols = SymbolTable::new();
            let interned: Vec<_> = w.iter().map(|&(r, _)| symbols.intern(r)).collect();
            let mut sequitur = Sequitur::new();
            let start = Instant::now();
            for &s in &interned {
                sequitur.append(s);
            }
            self.append.total += start.elapsed();
            self.append.calls += interned.len() as u64;
            let grammar = sequitur.grammar();
            let analysis = config
                .analysis
                .clone()
                .with_heat_percent(interned.len() as u64, config.heat_percent);
            let start = Instant::now();
            let result = hds_hotstream::fast::analyze(&grammar, &analysis);
            self.analyze.stop(start);
            matcher_streams = result
                .streams
                .iter()
                .map(|s| symbols.resolve_all(&s.symbols))
                .filter(|s| s.len() > config.dfsm.head_len)
                .take(config.max_streams)
                .collect();
        }
    }
}

/// The awake-phase window the replays cut references into: the
/// workload's own traced references per optimization cycle.
#[must_use]
pub fn window_of(reports: &[RunReport]) -> usize {
    let cycles: usize = reports.iter().map(|r| r.cycles.len()).sum();
    let traced: u64 = reports
        .iter()
        .flat_map(|r| &r.cycles)
        .map(|c| c.traced_refs)
        .sum();
    #[allow(clippy::cast_possible_truncation)]
    let w = traced.checked_div(cycles as u64).unwrap_or(0) as usize;
    w.max(1_000)
}
