//! Integration tests for the guard layer: budget degradation, fault
//! tolerance, and accuracy-driven partial de-optimization.

use hds_core::{
    AccuracyConfig, FaultPlan, GuardConfig, OptimizerConfig, PrefetchPolicy, PrefetchScheduling,
    Session, SessionBuilder,
};
use hds_telemetry::events::{self as tev, GuardKind};
use hds_telemetry::{MetricsRecorder, Observer};
use hds_trace::{AccessKind, Addr, DataRef, Pc};
use hds_vulcan::{Event, ProcId, Procedure, VecSource};

/// A memory-bound program with many hot streams walked in pseudo-random
/// order (mirrors the executor's own `big_stream_program`).
fn big_stream_program(iterations: usize) -> (VecSource, Vec<Procedure>) {
    let pcs: Vec<Pc> = (0..4).map(|i| Pc(16 + i * 4)).collect();
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
    let mut rng_state = 0x12345u64;
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

fn stream_config() -> OptimizerConfig {
    let mut c = OptimizerConfig::test_scale();
    c.bursty = hds_bursty::BurstyConfig::new(256, 512, 2, 3);
    c.analysis.min_length = 4;
    c.analysis.min_unique_refs = 2;
    c
}

#[test]
fn enabled_but_untripped_guards_are_bit_identical() {
    // Guards with unreachable budgets (and an unreachable accuracy
    // threshold) must not perturb the simulated machine at all.
    let (mut p1, procs1) = big_stream_program(2_000);
    let plain = SessionBuilder::new(stream_config())
        .procedures(procs1)
        .optimize(PrefetchPolicy::StreamTail)
        .run(&mut p1);

    let mut guarded_cfg = stream_config();
    guarded_cfg.guard = GuardConfig::disabled()
        .with_max_grammar_rules(u64::MAX)
        .with_max_analysis_cycles(u64::MAX)
        .with_max_dfsm_states(u64::MAX)
        .with_max_prefetch_queue(u64::MAX)
        .with_accuracy(AccuracyConfig {
            min_accuracy: 0.0, // accuracy < 0.0 is impossible: never flags
            bad_windows: 1,
            min_samples: 1,
        });
    let (mut p2, procs2) = big_stream_program(2_000);
    let guarded = SessionBuilder::new(guarded_cfg)
        .procedures(procs2)
        .optimize(PrefetchPolicy::StreamTail)
        .run(&mut p2);

    assert_eq!(guarded.total_cycles, plain.total_cycles);
    assert_eq!(guarded.breakdown, plain.breakdown);
    assert_eq!(guarded.mem, plain.mem);
    assert_eq!(guarded.guard_trips, 0);
    assert_eq!(guarded.partial_deopts, 0);
}

#[test]
fn grammar_budget_trips_and_skips_optimization() {
    let mut cfg = stream_config();
    cfg.guard = GuardConfig::disabled().with_max_grammar_rules(3);
    let (mut p, procs) = big_stream_program(2_000);
    let mut rec = MetricsRecorder::new();
    let report = SessionBuilder::new(cfg)
        .procedures(procs)
        .observer(&mut rec)
        .optimize(PrefetchPolicy::StreamTail)
        .run(&mut p);

    // The guard tripped in (at least) the first cycle; trip counts
    // reconcile exactly with the emitted telemetry.
    assert!(report.guard_trips >= 1, "grammar guard never tripped");
    assert_eq!(rec.guard_trips_total(), report.guard_trips);
    assert_eq!(rec.guard_trips(GuardKind::GrammarRules), report.guard_trips);
    // A muted grammar means the awake analysis is skipped: no streams,
    // no DFSM, no prefetches — but the run completes and still cycles.
    assert!(!report.cycles.is_empty());
    assert!(report.cycles.iter().all(|c| c.streams_used == 0));
    assert_eq!(report.mem.prefetches_issued, 0);
}

#[test]
fn analysis_budget_trips_and_carries_profile_cost_only() {
    let mut cfg = stream_config();
    cfg.guard = GuardConfig::disabled().with_max_analysis_cycles(1);
    let (mut p, procs) = big_stream_program(2_000);
    let report = SessionBuilder::new(cfg)
        .procedures(procs)
        .optimize(PrefetchPolicy::StreamTail)
        .run(&mut p);
    assert!(report.guard_trips >= 1);
    // Every cycle's final pass is skipped: traced refs are recorded but
    // nothing is analyzed or optimized.
    assert!(report.cycles.iter().all(|c| c.hot_streams == 0));
    assert_eq!(report.mem.prefetches_issued, 0);
    assert_eq!(report.breakdown.optimize, 0);
}

#[test]
fn dfsm_state_budget_skips_injection() {
    let mut cfg = stream_config();
    cfg.guard = GuardConfig::disabled().with_max_dfsm_states(1);
    let (mut p, procs) = big_stream_program(2_000);
    let report = SessionBuilder::new(cfg)
        .procedures(procs)
        .optimize(PrefetchPolicy::StreamTail)
        .run(&mut p);
    assert!(report.guard_trips >= 1, "state guard never tripped");
    // Analysis still runs (streams are found) but injection is skipped.
    assert!(report.cycles.iter().any(|c| c.streams_used > 0));
    assert!(report.cycles.iter().all(|c| c.dfsm_states == 0));
    assert_eq!(report.mem.prefetches_issued, 0);
}

#[test]
fn prefetch_queue_budget_truncates_but_keeps_prefetching() {
    let mut unguarded = stream_config();
    unguarded.scheduling = PrefetchScheduling::Windowed { degree: 1 };
    let mut guarded = unguarded.clone();
    guarded.guard = GuardConfig::disabled().with_max_prefetch_queue(2);

    let (mut p1, procs1) = big_stream_program(2_000);
    let free = SessionBuilder::new(unguarded)
        .procedures(procs1)
        .optimize(PrefetchPolicy::StreamTail)
        .run(&mut p1);
    let (mut p2, procs2) = big_stream_program(2_000);
    let capped = SessionBuilder::new(guarded)
        .procedures(procs2)
        .optimize(PrefetchPolicy::StreamTail)
        .run(&mut p2);

    assert!(capped.guard_trips >= 1, "queue guard never tripped");
    assert!(
        capped.mem.prefetches_issued > 0,
        "capped run stopped prefetching"
    );
    assert!(capped.mem.prefetches_issued <= free.mem.prefetches_issued);
}

#[test]
fn always_failing_edits_degrade_to_the_analyze_configuration() {
    // When every binary edit fails (and rolls back atomically), the
    // optimize-mode run must cost exactly what the analyze-only mode
    // costs: no injected checks, no prefetches, no optimize cycles.
    let (mut p1, procs1) = big_stream_program(2_000);
    let analyze = SessionBuilder::new(stream_config())
        .procedures(procs1)
        .analyze()
        .run(&mut p1);
    let (mut p2, procs2) = big_stream_program(2_000);
    let mut plan = FaultPlan::edits_always_fail(7);
    let faulted = SessionBuilder::new(stream_config())
        .procedures(procs2)
        .faults(&mut plan)
        .optimize(PrefetchPolicy::StreamTail)
        .run(&mut p2);

    assert!(
        plan.counts().failed_edits > 0,
        "no edits were ever attempted"
    );
    assert_eq!(faulted.total_cycles, analyze.total_cycles);
    assert_eq!(faulted.mem, analyze.mem);
    assert_eq!(faulted.breakdown.optimize, 0);
    assert_eq!(faulted.mem.prefetches_issued, 0);
}

// ---------------------------------------------------------------------
// Accuracy-driven partial de-optimization.
// ---------------------------------------------------------------------

const N_STREAMS: usize = 7;
const BAD: usize = 0; // the stream walked head-only during hibernation
const STREAM_LEN: u64 = 8;
const HEAD_LEN: usize = 2;

/// Stream `k`: eight refs with per-stream pcs, laid out so every
/// stream's i-th block lands in the same L1 set (0x10000 is a multiple
/// of the 4 KiB set stride). Seven streams competing for 4 ways per set
/// guarantees the bad stream's unused prefetched blocks are evicted —
/// and resolved as Polluted — by the good streams' demand misses.
fn demo_stream(k: usize) -> Vec<DataRef> {
    (0..STREAM_LEN)
        .map(|i| {
            DataRef::new(
                Pc(0x1000 * (k as u32 + 1) + 4 * i as u32),
                Addr(0x10000 * (k as u64 + 1) + i * 64),
            )
        })
        .collect()
}

fn demo_procs() -> Vec<Procedure> {
    (0..N_STREAMS)
        .map(|k| Procedure::new("p", demo_stream(k).iter().map(|r| r.pc).collect()))
        .collect()
}

/// Records the prefetch/deopt timeline so the test can assert what
/// happened strictly *after* the partial de-optimization.
#[derive(Default)]
struct Timeline {
    issued: Vec<(u64, u64)>,  // (at_cycle, addr)
    partial_deopts: Vec<u64>, // at_cycle
    full_deopts: Vec<u64>,    // at_cycle
}

impl Observer for Timeline {
    fn on(&mut self, event: &tev::Event) {
        match event {
            tev::Event::PrefetchIssued(e) => self.issued.push((e.at_cycle, e.addr)),
            tev::Event::Deoptimize(e) if e.partial => self.partial_deopts.push(e.at_cycle),
            tev::Event::Deoptimize(e) => self.full_deopts.push(e.at_cycle),
            _ => {}
        }
    }
}

fn walk_full(session: &mut Session<&mut Timeline>, k: usize, proc_id: u32) {
    session.on_event(Event::Enter(ProcId(proc_id)));
    for (i, r) in demo_stream(k).into_iter().enumerate() {
        if i % 3 == 0 {
            session.on_event(Event::BackEdge(ProcId(proc_id)));
        }
        // Enough slack for tail prefetches to land before their uses.
        session.on_event(Event::Work(60));
        session.on_event(Event::Access(r, AccessKind::Load));
    }
    session.on_event(Event::Exit(ProcId(proc_id)));
}

fn walk_head_only(session: &mut Session<&mut Timeline>, k: usize, proc_id: u32) {
    session.on_event(Event::Enter(ProcId(proc_id)));
    for r in demo_stream(k).into_iter().take(HEAD_LEN) {
        session.on_event(Event::Work(60));
        session.on_event(Event::Access(r, AccessKind::Load));
    }
    session.on_event(Event::Exit(ProcId(proc_id)));
}

#[test]
fn low_accuracy_stream_is_surgically_removed_while_the_rest_keep_prefetching() {
    let mut cfg = OptimizerConfig::test_scale();
    cfg.bursty = hds_bursty::BurstyConfig::new(48, 80, 4, 32);
    cfg.analysis.min_length = 4;
    cfg.analysis.min_unique_refs = 4;
    // Optimize once, then hibernate indefinitely: the whole second half
    // of the test runs against one installation.
    cfg.strategy = hds_core::CycleStrategy::Static;
    cfg.guard = GuardConfig::disabled().with_accuracy(AccuracyConfig {
        min_accuracy: 0.35,
        bad_windows: 2,
        min_samples: 3,
    });

    let mut timeline = Timeline::default();
    let mut session = SessionBuilder::new(cfg)
        .procedures(demo_procs())
        .observer(&mut timeline)
        .optimize(PrefetchPolicy::StreamTail)
        .build();

    // Phase 1 — profile: walk every stream fully, in pseudo-random
    // order (so Sequitur reifies each stream as its own rule), until the
    // first optimization lands.
    let mut rng = 0x9E3779B9u64;
    let mut spins = 0;
    while session.opt_cycles_so_far() == 0 {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let k = (rng % N_STREAMS as u64) as usize;
        walk_full(&mut session, k, k as u32);
        spins += 1;
        assert!(spins < 4_000, "optimization never happened");
    }

    // Phase 2 — hibernation: good streams keep walking fully (their
    // prefetched tails are used), the bad stream only ever shows its
    // head (its prefetched tail is never used and gets evicted by the
    // set-conflicting good streams → Polluted outcomes).
    let mut hibernation_walks = 0;
    while session.guard().map_or(0, |g| g.denylist_len()) == 0 {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let k = (rng % N_STREAMS as u64) as usize;
        if k == BAD {
            walk_head_only(&mut session, k, k as u32);
        } else {
            walk_full(&mut session, k, k as u32);
        }
        hibernation_walks += 1;
        assert!(
            hibernation_walks < 20_000,
            "the bad stream was never de-optimized"
        );
    }

    // Phase 3 — after the surgical removal: the surviving streams must
    // keep prefetching.
    let issued_at_deopt = session.mem_stats().prefetches_issued;
    for _ in 0..200 {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let k = (rng % N_STREAMS as u64) as usize;
        if k == BAD {
            walk_head_only(&mut session, k, k as u32);
        } else {
            walk_full(&mut session, k, k as u32);
        }
    }
    let issued_after = session.mem_stats().prefetches_issued;
    assert!(
        issued_after > issued_at_deopt,
        "surviving streams stopped prefetching after the partial deopt"
    );

    let report = session.finish("partial-deopt-demo");
    assert!(report.partial_deopts >= 1, "no partial deopt recorded");
    assert!(
        report.mem.prefetches_useful > 0,
        "no stream ever predicted well"
    );

    // Timeline assertions: a partial deopt happened, no full deopt did
    // (static strategy + surgical removal), and after the partial deopt
    // the bad stream's tail was never prefetched again while the good
    // streams' tails were.
    assert!(!timeline.partial_deopts.is_empty());
    assert!(
        timeline.full_deopts.is_empty(),
        "partial deopt degenerated into a full deopt"
    );
    let t = timeline.partial_deopts[0];
    let bad_tail: Vec<u64> = demo_stream(BAD)
        .iter()
        .skip(HEAD_LEN)
        .map(|r| r.addr.0)
        .collect();
    let after: Vec<&(u64, u64)> = timeline.issued.iter().filter(|(c, _)| *c > t).collect();
    assert!(
        !after.is_empty(),
        "no prefetches at all after the partial deopt"
    );
    assert!(
        after.iter().all(|(_, a)| !bad_tail.contains(a)),
        "the removed stream's tail was still being prefetched"
    );
}
