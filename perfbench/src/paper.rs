//! `paper_suite`: the paper's six benchmarks at paper scale under
//! `OptimizerConfig::paper_scale()` with stream-tail prefetching, fed
//! straight into `Session::on_event` in chunks of [`CHUNK_EVENTS`].
//! No wire, snapshot or store code runs.
//!
//! The programs are the paper's own and fixed, so the seed only rotates
//! the order they run in; their simulated cycles must equal
//! [`PINNED`] at every seed. A run feeds every whole program once,
//! untimed, beside its baseline — the pinned check, and the warm-up —
//! then times repeated passes over the first [`TIMED_CHUNKS`] chunks of
//! each program: a whole pass takes about 7 s, a timed one under 2 s,
//! so every chunk is timed many times over the run.

use std::time::Instant;

use hds_core::{OptimizerConfig, PrefetchPolicy, RunReport, Session, SessionBuilder};
use hds_telemetry::Observer;
use hds_vulcan::{Event, Procedure};
use hds_workloads::{benchmark, Benchmark, Scale, Workload};

use crate::affinity::Rotation;
use crate::ledger::{refs_of, traced_session, window_of, CoreReplay, LayerReplay, Ledger};
use crate::programs::{paper_tenants, CHUNK_EVENTS};
use crate::report::{Measured, SETUP_GROUP};
use crate::serve::Traffic;
use crate::stats::ratio;
use crate::workloads::{replay_layers, Layer};
use crate::Opts;

/// Simulated cycles of each benchmark as this repository computes them:
/// `(name, stream-tail prefetching, baseline)`. These supersede the
/// older figures in `results/`, which no longer reproduce.
pub const PINNED: [(&str, u64, u64); 6] = [
    ("vpr", 65_525_337, 76_753_959),
    ("mcf", 132_348_919, 142_738_036),
    ("twolf", 276_376_728, 299_092_285),
    ("parser", 50_233_666, 52_982_597),
    ("vortex", 78_064_851, 79_570_564),
    ("boxsim", 153_422_781, 162_333_006),
];

/// Timed passes a run makes at least, so that every chunk is timed
/// several times however slow the host is.
const MIN_PASSES: usize = 5;

/// Chunks of each benchmark a timed pass feeds: 4M events, about four
/// of the sixteen or so optimization cycles of a whole program.
const TIMED_CHUNKS: usize = 1_000;

/// Events of each benchmark fed to a checkpointed session whose last
/// snapshot is resumed in the traced run.
const RESUME_PREFIX_EVENTS: usize = 2_500_000;

/// Data references of each benchmark the layer replays use.
const REPLAY_REFS: usize = 200_000;

const MODE: hds_core::RunMode = hds_core::RunMode::Optimize(PrefetchPolicy::StreamTail);

/// The six benchmarks, starting at `seed % 6`.
fn order(seed: u64) -> Vec<Benchmark> {
    let mut all = Benchmark::ALL.to_vec();
    #[allow(clippy::cast_possible_truncation)]
    all.rotate_left((seed % 6) as usize);
    all
}

/// Refills `chunk` with the program's next events; `false` at its end.
fn next_chunk(program: &mut dyn Workload, chunk: &mut Vec<Event>) -> bool {
    chunk.clear();
    while chunk.len() < CHUNK_EVENTS {
        match program.next_event() {
            Some(e) => chunk.push(e),
            None => break,
        }
    }
    !chunk.is_empty()
}

fn builder(
    config: &OptimizerConfig,
    procedures: Vec<Procedure>,
) -> SessionBuilder<hds_core::Ready> {
    SessionBuilder::new(config.clone())
        .procedures(procedures)
        .mode(MODE)
}

/// One benchmark's result in a pass.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    report: RunReport,
    digest: u64,
    base_cycles: u64,
}

/// How a pass feeds the optimized session: plainly, or timing every
/// call for the ledger.
trait Feeder<O: Observer> {
    fn feed(&mut self, session: &mut Session<O>, chunk: &[Event]);

    /// Called once a session has consumed its whole program.
    fn ended(&mut self, _session: &Session<O>) {}
}

struct Plain;

impl Feeder<hds_core::NullObserver> for Plain {
    fn feed(&mut self, session: &mut Session, chunk: &[Event]) {
        for &e in chunk {
            session.on_event(e);
        }
    }
}

impl Feeder<crate::probe::WallObserver> for CoreReplay {
    fn feed(&mut self, session: &mut crate::ledger::TracedSession, chunk: &[Event]) {
        CoreReplay::feed(self, session, chunk);
    }

    fn ended(&mut self, session: &crate::ledger::TracedSession) {
        self.spans.add(&session.observer().times);
    }
}

/// One pass over the suite.
struct Pass {
    outcomes: Vec<Outcome>,
    events: u64,
    /// Seconds of each timed segment: every chunk, and every `finish`.
    times_s: Vec<f64>,
    /// Each chunk's time, in ms.
    chunk_ms: Vec<f64>,
}

/// Runs every benchmark once, or its first `limit` chunks: the
/// optimized session timed chunk by chunk, the baseline session (when
/// `baseline`) fed the same chunks untimed, and `between` before each
/// benchmark.
fn pass<O: Observer, F: Feeder<O>>(
    config: &OptimizerConfig,
    order: &[Benchmark],
    baseline: bool,
    limit: Option<usize>,
    feeder: &mut F,
    build: impl Fn(Vec<Procedure>) -> Session<O>,
    between: &mut dyn FnMut(),
) -> Pass {
    let mut p = Pass {
        outcomes: Vec::with_capacity(order.len()),
        events: 0,
        times_s: Vec::new(),
        chunk_ms: Vec::new(),
    };
    let mut chunk = Vec::with_capacity(CHUNK_EVENTS);
    for &which in order {
        between();
        let mut program = benchmark(which, Scale::Paper);
        let procedures = program.procedures();
        let mut session = build(procedures.clone());
        let mut base = baseline.then(|| {
            SessionBuilder::new(config.clone())
                .procedures(procedures)
                .baseline()
                .build()
        });
        let mut fed = 0;
        while limit.is_none_or(|l| fed < l) && next_chunk(&mut *program, &mut chunk) {
            fed += 1;
            let start = Instant::now();
            feeder.feed(&mut session, &chunk);
            let took = start.elapsed().as_secs_f64();
            p.times_s.push(took);
            p.chunk_ms.push(took * 1e3);
            p.events += chunk.len() as u64;
            if let Some(base) = base.as_mut() {
                for &e in &chunk {
                    base.on_event(e);
                }
            }
        }
        feeder.ended(&session);
        let digest = session.image_digest();
        let start = Instant::now();
        let report = session.finish(which.name());
        p.times_s.push(start.elapsed().as_secs_f64());
        p.outcomes.push(Outcome {
            report,
            digest,
            base_cycles: base.map_or(0, |b| b.finish(which.name()).total_cycles),
        });
    }
    p
}

/// Runs `paper_suite`.
pub fn run(opts: &Opts, ledger: Option<&mut Ledger>) -> Measured {
    let config = OptimizerConfig::paper_scale();
    let order = order(opts.seed);
    let mut m = Measured::default();

    // Set-up — the six `SessionBuilder::build` calls — sampled in a
    // group before each benchmark of each pass, so the samples spread
    // over the whole run.
    let procedures: Vec<Vec<Procedure>> = order
        .iter()
        .map(|&w| benchmark(w, Scale::Paper).procedures())
        .collect();
    let sample_setups = |setups: &mut Vec<f64>| {
        for _ in 0..SETUP_GROUP {
            let start = Instant::now();
            let sessions: Vec<Session> = procedures
                .iter()
                .map(|p| builder(&config, p.clone()).build())
                .collect();
            setups.push(start.elapsed().as_secs_f64());
            drop(sessions);
        }
    };

    // The whole programs beside their baselines, untimed: the pinned
    // check, and the warm-up.
    let mut cpus = Rotation::new();
    cpus.advance();
    let whole = pass(
        &config,
        &order,
        true,
        None,
        &mut Plain,
        |p| builder(&config, p).build(),
        &mut || {},
    );
    m.attempted += whole.chunk_ms.len() as u64;
    for (which, o) in order.iter().zip(&whole.outcomes) {
        m.opt_cycles += o.report.total_cycles;
        m.base_cycles += o.base_cycles;
        let pinned = PINNED
            .iter()
            .find(|p| p.0 == which.name())
            .expect("every benchmark is pinned");
        m.check(
            o.report.total_cycles == pinned.1 && o.base_cycles == pinned.2,
            || {
                format!(
                    "{which}: {} / {} simulated cycles, pinned {} / {}",
                    o.report.total_cycles, o.base_cycles, pinned.1, pinned.2
                )
            },
        );
    }

    // Timed passes over the programs' first chunks: at least
    // `MIN_PASSES`, more while they fit in the budget.
    let mut first: Option<Vec<Outcome>> = None;
    loop {
        cpus.advance();
        let mut setups = Vec::new();
        let p = pass(
            &config,
            &order,
            false,
            Some(TIMED_CHUNKS),
            &mut Plain,
            |p| builder(&config, p).build(),
            &mut || sample_setups(&mut setups),
        );
        m.add_setups(&setups);
        m.attempted += p.chunk_ms.len() as u64;
        let took: f64 = p.times_s.iter().sum();
        #[allow(clippy::cast_precision_loss)]
        let rate = p.events as f64 / took;
        eprintln!(
            "pass: {} chunks, {took:.3} s busy, {rate:.0} events/s",
            p.chunk_ms.len()
        );
        m.add_rep(p.events, &p.times_s, &p.chunk_ms);
        match &first {
            None => first = Some(p.outcomes),
            Some(o) => {
                let same = p
                    .outcomes
                    .iter()
                    .zip(o)
                    .all(|(a, b)| a.report == b.report && a.digest == b.digest);
                m.check(same, || "a pass differs from the first".into());
            }
        }
        if m.reps >= MIN_PASSES && m.busy_s() + took > opts.seconds {
            break;
        }
    }
    let timed = first.expect("one pass ran");

    if let Some(ledger) = ledger {
        traced(&config, &order, &mut m, &whole.outcomes, &timed, ledger);
    }
    m
}

/// The traced pass, checked against the untraced ones, and the
/// replays. `whole` holds the whole programs' outcomes, `timed` the
/// timed passes'.
fn traced(
    config: &OptimizerConfig,
    order: &[Benchmark],
    m: &mut Measured,
    whole: &[Outcome],
    timed: &[Outcome],
    ledger: &mut Ledger,
) {
    let mut core = CoreReplay::default();
    let traced_pass = pass(
        config,
        order,
        false,
        Some(TIMED_CHUNKS),
        &mut core,
        |p| traced_session(config, MODE, p, false),
        &mut || {},
    );
    m.check(traced_pass.outcomes == timed, || {
        "traced reports differ from untraced ones".into()
    });
    let traced_s: f64 = traced_pass.times_s.iter().sum();

    // Snapshots: a checkpointed prefix of each benchmark, resumed.
    let mut chunk = Vec::with_capacity(CHUNK_EVENTS);
    let mut layers = LayerReplay::default();
    let reports: Vec<RunReport> = whole.iter().map(|o| o.report.clone()).collect();
    let window = window_of(&reports);
    for &which in order {
        let mut program = benchmark(which, Scale::Paper);
        let procedures = program.procedures();
        let mut session = traced_session(config, MODE, procedures.clone(), true);
        let mut refs = Vec::with_capacity(REPLAY_REFS);
        let mut fed = 0;
        while fed < RESUME_PREFIX_EVENTS && next_chunk(&mut *program, &mut chunk) {
            if refs.len() < REPLAY_REFS {
                refs_of(&chunk, &mut refs);
            }
            for &e in &chunk {
                session.on_event(e);
            }
            fed += chunk.len();
        }
        let times = session.observer().times;
        core.spans.snapshots += times.snapshots;
        core.spans.snapshot_bytes += times.snapshot_bytes;
        if let Some(snapshot) = session.latest_snapshot() {
            m.check(
                core.time_resume(config, MODE, &procedures, snapshot),
                || format!("{which}: a captured snapshot did not resume"),
            );
        }
        layers.replay(config, &refs, window);
    }
    ledger.set_reports(&reports);
    ledger.set_core(&core);
    ledger.set_layers(&layers);
    // No serve, store or router code runs here; time those layers on
    // the suite's own chunks.
    let traffic = Traffic {
        specs: paper_tenants(order),
        cap: None,
    };
    replay_layers(
        ledger,
        m,
        config,
        &traffic,
        &[Layer::Serve, Layer::Store, Layer::Router],
    );
    #[allow(clippy::cast_precision_loss)]
    let traced_eps = ratio(traced_pass.events as f64, traced_s);
    ledger.set("trace.overhead", ratio(traced_eps, m.raw_events_per_s()));

    ledger.traced_ms = traced_s * 1e3;
    #[allow(clippy::cast_precision_loss)]
    let passes = m.reps as f64;
    ledger.untraced_ms = m.busy_s() * 1e3 / passes;
    let boundary = core.boundary().ms();
    let pass_reports = || traced_pass.outcomes.iter().map(|o| &o.report);
    let refs: u64 = pass_reports().map(|r| r.refs).sum();
    let traced_refs: u64 = pass_reports()
        .flat_map(|r| &r.cycles)
        .map(|c| c.traced_refs)
        .sum();
    ledger.row("core on_event, no boundary", core.fed_ms() - boundary);
    #[allow(clippy::cast_precision_loss)]
    {
        ledger.part(
            "memsim access (replay estimate)",
            refs as f64 * layers.access.mean(1e3),
        );
        ledger.part(
            "sequitur append (replay estimate)",
            traced_refs as f64 * layers.append.mean(1e3),
        );
    }
    ledger.row("core on_event, phase boundary", boundary);
    ledger.part("hotstream analyze span", core.spans.analyze.ms());
    ledger.part("dfsm build span", core.spans.dfsm_build.ms());
    ledger.part("vulcan image edit span", core.spans.image_edit.ms());
    let chunks_ms: f64 = traced_pass.chunk_ms.iter().sum();
    ledger.row("core finish", ledger.traced_ms - chunks_ms);
    ledger.notes.push(format!(
        "{} events in {} chunks; the memsim and sequitur rows multiply replayed per-call times by the reports' counts",
        traced_pass.events,
        traced_pass.chunk_ms.len()
    ));
}
