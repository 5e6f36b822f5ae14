//! Off-critical-path analysis: the background worker that runs
//! Sequitur, hot-stream detection, and DFSM construction concurrently
//! with the simulated program, plus the pure analysis stages shared
//! with the inline (on-critical-path) implementation.
//!
//! # Determinism
//!
//! The worker runs on a real OS thread, but its *effect* on the
//! simulated run is scheduled entirely in simulated time. At handoff
//! the session computes a ready point
//! `ready_at = handoff_at + analysis_per_ref_cycles * trace_len (+
//! injected stall)` — the modeled latency of the analysis — and the
//! result is installed at the first dynamic check whose cycle count
//! reaches that point. If the worker has not actually finished by then,
//! the session blocks (wall-clock only) on the result channel. Real
//! thread-scheduling jitter therefore never changes what the simulated
//! program observes: runs are bit-identical whatever the host load.
//!
//! # Backpressure
//!
//! Both channels are bounded (`sync_channel(1)`), and the session
//! maintains the invariant that an in-flight request is always resolved
//! — applied or discarded as *starved* — before the next handoff, so at
//! most one trace is ever buffered (double buffering: the trace being
//! analyzed, and the one being collected).

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use hds_dfsm::{build as build_dfsm, BuildError, Dfsm};
use hds_sequitur::Sequitur;
use hds_trace::{DataRef, SymbolTable};

use crate::config::OptimizerConfig;

/// Content hash of a stream's reference sequence, used by the accuracy
/// policy's cross-installation denylist. `DefaultHasher::new()` is
/// deterministic, so denylisting is reproducible run-to-run.
pub(crate) fn stream_hash(refs: &[DataRef]) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    for r in refs {
        r.pc.0.hash(&mut h);
        r.addr.0.hash(&mut h);
    }
    h.finish()
}

/// Selects the streams to hand to the DFSM from the analysis's
/// hottest-first candidates. Drops candidates that are too short to
/// outlive their match prefix (`len <= head_len`), denylisted by
/// content hash, or redundant against an accepted stream: a contiguous
/// subsequence of one — matching it separately would only duplicate
/// prefetches — or an *extension* of one (same prefix), a coincidental
/// concatenation whose head fires on every walk of the accepted stream
/// but whose extra tail rarely follows.
pub(crate) fn select_streams(
    candidates: impl IntoIterator<Item = Vec<DataRef>>,
    head_len: usize,
    max_streams: usize,
    is_denylisted: impl Fn(u64) -> bool,
) -> Vec<Vec<DataRef>> {
    let mut streams: Vec<Vec<DataRef>> = Vec::new();
    for cand in candidates {
        if cand.len() <= head_len {
            continue;
        }
        if streams.len() >= max_streams {
            break;
        }
        if is_denylisted(stream_hash(&cand)) {
            continue;
        }
        let subsumed = streams
            .iter()
            .any(|s| s.windows(cand.len()).any(|w| w == &cand[..]) || cand.starts_with(&s[..]));
        if !subsumed {
            streams.push(cand);
        }
    }
    streams
}

/// Builds the prefix-matching DFSM over `streams`, with the guard's
/// state cap (when configured) applied on top of the DFSM crate's own
/// limit.
pub(crate) fn machine_for(
    streams: &[Vec<DataRef>],
    config: &OptimizerConfig,
) -> Result<Dfsm, BuildError> {
    let mut dfsm_cfg = config.dfsm.clone();
    if let Some(cap) = config.guard.max_dfsm_states {
        dfsm_cfg.max_states = dfsm_cfg.max_states.min(cap as usize);
    }
    build_dfsm(streams, &dfsm_cfg)
}

/// One awake-phase trace handed to the worker, with everything the
/// analysis needs snapshotted at the handoff point (the worker must not
/// reach back into session state). `Clone` so an in-flight request can
/// be captured in a crash-consistent checkpoint and re-submitted to a
/// fresh worker on resume.
#[derive(Clone, Debug)]
pub(crate) struct AnalyzeRequest {
    /// The recorded references, in trace order.
    pub refs: Vec<DataRef>,
    /// Denylisted stream content hashes at the handoff, sorted.
    pub denylist: Vec<u64>,
}

/// The worker's result for one trace. Guard *observations* it implies
/// (grammar growth, DFSM state overflow) are carried as data and
/// recorded against the session's `GuardRuntime` on the main thread at
/// the apply point — the worker never touches the runtime.
#[derive(Debug, Default)]
pub(crate) struct AnalyzeOutcome {
    /// References the grammar consumed (short of the trace when muted).
    pub trace_len: u64,
    /// Grammar size (total body symbols) the analysis ran over.
    pub grammar_size: usize,
    /// Peak Sequitur rule count while consuming the trace.
    pub rules_peak: u64,
    /// The grammar-rule cap was exceeded mid-trace: the profile is
    /// incomplete and the cycle completes degraded.
    pub muted: bool,
    /// Hot data streams detected.
    pub hot_streams: usize,
    /// Streams selected for the DFSM (empty unless optimizing).
    pub streams: Vec<Vec<DataRef>>,
    /// The built matcher, when optimizing and construction stayed in
    /// budget.
    pub dfsm: Option<Dfsm>,
    /// Subset construction overflowed: the observed state count
    /// (limit + 1) for the `DfsmStates` guard.
    pub dfsm_over_limit: Option<u64>,
}

/// Runs the full analyze stage over one trace: grammar construction,
/// hot-stream detection, stream selection, and (when `optimize`) DFSM
/// construction. Pure with respect to session state — both the
/// background worker and tests call this directly.
pub(crate) fn analyze_trace(
    config: &OptimizerConfig,
    optimize: bool,
    req: &AnalyzeRequest,
) -> AnalyzeOutcome {
    let rules_cap = config.guard.max_grammar_rules;
    let mut symbols = SymbolTable::new();
    let mut sequitur = Sequitur::new();
    let mut rules_peak = 0u64;
    let mut muted = false;
    for &r in &req.refs {
        let s = symbols.intern(r);
        sequitur.append(s);
        let rules = sequitur.rule_count() as u64;
        rules_peak = rules_peak.max(rules);
        // Same mute semantics as the inline path: the reference that
        // crossed the cap is in the grammar, the rest of the trace is
        // not.
        if rules_cap.is_some_and(|cap| rules > cap) {
            muted = true;
            break;
        }
    }
    #[cfg(debug_assertions)]
    if let Err(e) = sequitur.check_invariants() {
        panic!("Sequitur invariant broken at a trace's end: {e}");
    }
    let trace_len = sequitur.input_len();
    let grammar = sequitur.grammar();
    let mut out = AnalyzeOutcome {
        trace_len,
        grammar_size: grammar.size(),
        rules_peak,
        muted,
        ..AnalyzeOutcome::default()
    };
    if muted {
        return out;
    }
    let analysis_cfg = config
        .analysis
        .clone()
        .with_heat_percent(trace_len, config.heat_percent);
    let result = hds_hotstream::fast::analyze(&grammar, &analysis_cfg);
    out.hot_streams = result.streams.len();
    if optimize {
        let candidates = result
            .streams
            .iter()
            .map(|s| symbols.resolve_all(&s.symbols));
        let streams = select_streams(candidates, config.dfsm.head_len, config.max_streams, |h| {
            req.denylist.binary_search(&h).is_ok()
        });
        if !streams.is_empty() {
            match machine_for(&streams, config) {
                Ok(dfsm) => out.dfsm = Some(dfsm),
                Err(BuildError::TooManyStates { limit }) => {
                    out.dfsm_over_limit = Some(limit as u64 + 1);
                }
                Err(_) => {}
            }
        }
        out.streams = streams;
    }
    out
}

/// An in-flight background analysis, tracked in simulated time.
///
/// Carries the handed-off request itself so a checkpoint taken while an
/// analysis is in flight can re-submit the identical trace to a fresh
/// worker on resume (`analyze_trace` is pure, so the re-run result is
/// bit-identical).
#[derive(Clone, Debug)]
pub(crate) struct PendingAnalysis {
    /// Simulated cycle count at the handoff.
    pub handoff_at: u64,
    /// The deterministic install point: the first check at or past this
    /// cycle count resolves the analysis.
    pub ready_at: u64,
    /// The handed-off request (trace + denylist at the handoff point).
    pub request: AnalyzeRequest,
}

/// The background analysis worker: a thread consuming
/// [`AnalyzeRequest`]s and producing [`AnalyzeOutcome`]s over bounded
/// channels, plus the session-side bookkeeping (the in-flight request
/// and the handoff/apply/starve counters the report surfaces).
#[derive(Debug)]
pub(crate) struct BackgroundAnalysis {
    tx: Option<SyncSender<AnalyzeRequest>>,
    rx: Receiver<AnalyzeOutcome>,
    handle: Option<JoinHandle<()>>,
    /// Weak side of a liveness token owned by the worker thread: it
    /// upgrades iff the thread is still running. Tests use it to assert
    /// that dropping a session mid-phase leaves no detached thread.
    alive: std::sync::Weak<()>,
    /// The in-flight request, if any. Invariant: resolved (applied or
    /// starved) before the next handoff.
    pub pending: Option<PendingAnalysis>,
    /// Traces handed to the worker.
    pub handoffs: u64,
    /// Results installed at their ready point.
    pub applied: u64,
    /// Results discarded (hibernation ended first, the run finished, or
    /// the worker-lag guard tripped).
    pub starved: u64,
}

impl BackgroundAnalysis {
    /// Spawns the worker. `optimize` selects whether DFSM construction
    /// runs (it is skipped in analyze-only modes, exactly as inline).
    pub fn spawn(config: OptimizerConfig, optimize: bool) -> Self {
        let (tx, req_rx) = sync_channel::<AnalyzeRequest>(1);
        let (out_tx, rx) = sync_channel::<AnalyzeOutcome>(1);
        let token = std::sync::Arc::new(());
        let alive = std::sync::Arc::downgrade(&token);
        let handle = std::thread::Builder::new()
            .name("hds-analysis".into())
            .spawn(move || {
                let _token = token; // dropped when the thread exits
                while let Ok(req) = req_rx.recv() {
                    if out_tx.send(analyze_trace(&config, optimize, &req)).is_err() {
                        break;
                    }
                }
            })
            .expect("failed to spawn the analysis worker thread");
        BackgroundAnalysis {
            tx: Some(tx),
            rx,
            handle: Some(handle),
            alive,
            pending: None,
            handoffs: 0,
            applied: 0,
            starved: 0,
        }
    }

    /// A weak handle that upgrades iff the worker thread is still
    /// running. After the session (and thus this struct) is dropped,
    /// `upgrade()` returns `None` — the joined thread released its
    /// token.
    pub fn worker_probe(&self) -> std::sync::Weak<()> {
        self.alive.clone()
    }

    /// Hands a trace to the worker. `false` when the worker is gone
    /// (it panicked), in which case the caller degrades the cycle.
    pub fn submit(&mut self, req: AnalyzeRequest) -> bool {
        self.tx.as_ref().is_some_and(|tx| tx.send(req).is_ok())
    }

    /// Receives the in-flight result, blocking (wall-clock only) until
    /// the worker delivers it. `None` when the worker is gone.
    pub fn recv(&mut self) -> Option<AnalyzeOutcome> {
        self.rx.recv().ok()
    }
}

impl Drop for BackgroundAnalysis {
    fn drop(&mut self) {
        // Close the request channel so the worker's recv fails, then
        // join. An undelivered result sits in the bounded buffer (the
        // worker never blocks on send), so this cannot deadlock.
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hds_trace::{Addr, Pc};

    fn stream(base: u64, len: u64) -> Vec<DataRef> {
        (0..len)
            .map(|k| DataRef::new(Pc(16 + (k as u32 % 4) * 4), Addr(base + k * 256)))
            .collect()
    }

    fn hot_trace() -> Vec<DataRef> {
        let s = stream(0x4000, 8);
        let mut refs = Vec::new();
        for _ in 0..50 {
            refs.extend_from_slice(&s);
        }
        refs
    }

    fn config() -> OptimizerConfig {
        let mut c = OptimizerConfig::test_scale();
        c.analysis.min_length = 4;
        c.analysis.min_unique_refs = 2;
        c
    }

    #[test]
    fn analyze_trace_detects_and_builds() {
        let req = AnalyzeRequest {
            refs: hot_trace(),
            denylist: Vec::new(),
        };
        let out = analyze_trace(&config(), true, &req);
        assert_eq!(out.trace_len, 400);
        assert!(out.hot_streams > 0, "no hot streams: {out:?}");
        assert!(!out.streams.is_empty());
        assert!(out.dfsm.is_some());
        assert!(!out.muted);
        assert!(out.rules_peak > 0);
    }

    #[test]
    fn denylisted_streams_are_not_selected() {
        let open = analyze_trace(
            &config(),
            true,
            &AnalyzeRequest {
                refs: hot_trace(),
                denylist: Vec::new(),
            },
        );
        let mut denylist: Vec<u64> = open.streams.iter().map(|s| stream_hash(s)).collect();
        denylist.sort_unstable();
        let blocked = analyze_trace(
            &config(),
            true,
            &AnalyzeRequest {
                refs: hot_trace(),
                denylist: denylist.clone(),
            },
        );
        // Previously-subsumed candidates may take the denylisted
        // streams' slots, but no selected stream may be denylisted.
        assert!(!open.streams.is_empty());
        for s in &blocked.streams {
            assert!(!denylist.contains(&stream_hash(s)));
        }
    }

    #[test]
    fn grammar_cap_mutes_and_reports_peak() {
        let mut c = config();
        c.guard = c.guard.with_max_grammar_rules(2);
        // Distinct repeated digrams each reify a rule, so the rule
        // count climbs steadily past the cap.
        let mut refs: Vec<DataRef> = Vec::new();
        for k in 0..32u64 {
            let a = DataRef::new(Pc(16), Addr(0x1000 + k * 1024));
            let b = DataRef::new(Pc(20), Addr(0x1000 + k * 1024 + 512));
            refs.extend([a, b, a, b]);
        }
        let total = refs.len() as u64;
        let out = analyze_trace(
            &c,
            true,
            &AnalyzeRequest {
                refs,
                denylist: Vec::new(),
            },
        );
        assert!(out.muted);
        assert!(out.trace_len < total);
        assert!(out.rules_peak > 2);
        assert!(out.streams.is_empty());
        assert!(out.dfsm.is_none());
    }

    #[test]
    fn worker_round_trips_a_request() {
        let mut bg = BackgroundAnalysis::spawn(config(), true);
        assert!(bg.submit(AnalyzeRequest {
            refs: hot_trace(),
            denylist: Vec::new(),
        }));
        let out = bg.recv().expect("worker died");
        assert!(out.dfsm.is_some());
        // Dropping with no traffic in flight joins cleanly.
        drop(bg);
    }

    #[test]
    fn worker_drop_with_undelivered_result_does_not_deadlock() {
        let mut bg = BackgroundAnalysis::spawn(config(), true);
        assert!(bg.submit(AnalyzeRequest {
            refs: hot_trace(),
            denylist: Vec::new(),
        }));
        // Drop without receiving: the result lands in the bounded
        // buffer and the worker exits on channel close.
        drop(bg);
    }

    #[test]
    fn worker_probe_dies_with_the_worker() {
        let bg = BackgroundAnalysis::spawn(config(), true);
        let probe = bg.worker_probe();
        assert!(probe.upgrade().is_some(), "worker should be running");
        drop(bg);
        // Drop joins the thread, so by here the token is released.
        assert!(
            probe.upgrade().is_none(),
            "worker thread outlived its session"
        );
    }

    #[test]
    fn select_streams_orders_and_dedupes() {
        let a = stream(0x1000, 6);
        let sub: Vec<DataRef> = a[1..5].to_vec(); // contiguous subsequence
        let mut ext = a.clone(); // extension: same prefix, longer
        ext.extend(stream(0x9000, 2));
        let b = stream(0x2000, 6);
        let picked = select_streams(vec![a.clone(), sub, ext, b.clone()], 2, 8, |_| false);
        assert_eq!(picked, vec![a, b]);
    }
}
