//! In-memory metrics: counters, log-scaled histograms, per-stream
//! prefetch quality, and a Prometheus text renderer.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use crate::events::{Event, GuardKind, PhaseKind, PrefetchFate, ServeBudgetKind};
use crate::Observer;

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `i > 0` holds values in
/// `[2^(i-1), 2^i - 1]`, i.e. the upper bound of bucket `i` is
/// `2^i - 1`. Log scaling keeps the histogram O(64) regardless of the
/// value range, which is what a hot-path recorder can afford.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(upper_bound, cumulative_count)` pairs up to the highest
    /// occupied bucket — the shape Prometheus histogram series need.
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let top = match self.buckets.iter().rposition(|&c| c > 0) {
            Some(i) => i,
            None => return Vec::new(),
        };
        let mut acc = 0;
        (0..=top)
            .map(|i| {
                acc += self.buckets[i];
                let bound = match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
                (bound, acc)
            })
            .collect()
    }
}

/// Per-stream prefetch quality counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamMetrics {
    /// Prefetches issued on behalf of the stream.
    pub issued: u64,
    /// Resolved as full hits.
    pub useful: u64,
    /// Resolved late (demand access caught the block in flight).
    pub late: u64,
    /// Evicted unused.
    pub polluted: u64,
}

impl StreamMetrics {
    #[allow(clippy::cast_precision_loss)]
    fn ratio(num: u64, den: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }

    /// Fraction of issued prefetches that became full hits.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        Self::ratio(self.useful, self.issued)
    }

    /// Fraction of issued prefetches whose predicted access actually
    /// arrived (usefully or late) — how often the stream's prediction
    /// covered a real access.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        Self::ratio(self.useful + self.late, self.issued)
    }

    /// Among prefetches whose access arrived, the fraction that landed
    /// in time to fully hide the miss.
    #[must_use]
    pub fn timeliness(&self) -> f64 {
        Self::ratio(self.useful, self.useful + self.late)
    }
}

/// The standard metrics observer: counts every event kind, histograms
/// the interesting magnitudes, and tracks per-stream prefetch quality.
///
/// Counters are exact mirrors of the run's behavior, so they reconcile
/// against the final `RunReport` (the `telemetry_demo` binary asserts
/// this).
#[derive(Clone, Debug, Default)]
pub struct MetricsRecorder {
    // Plain counters.
    phase_transitions_awake: u64,
    phase_transitions_hibernate: u64,
    cycles_started: u64,
    cycles_completed: u64,
    streams_detected: u64,
    dfsms_built: u64,
    prefetches_issued: u64,
    outcomes: [u64; 3], // indexed by fate
    deopts: u64,
    partial_deopts: u64,
    guard_trips: [u64; 5], // indexed by guard kind
    traced_refs_total: u64,
    last_duty_cycle: f64,
    analysis_handoffs: u64,
    analysis_applied: u64,
    analysis_starved: u64,
    recovery_snapshots: u64,
    recovery_replays: u64,
    recovery_rollforwards: u64,
    recovery_restarts: u64,
    recovery_gave_up: u64,
    recovery_backoff_cycles: u64,
    serve_opened: u64,
    serve_opened_by_backend: [u64; 3], // indexed by backend wire code
    serve_evicted: u64,
    serve_resumed: u64,
    serve_busy: u64,
    serve_shed: [u64; 5], // indexed by serve budget kind
    serve_replayed_events: u64,
    store_spilled: u64,
    store_spilled_bytes: u64,
    store_loaded: u64,
    store_loaded_bytes: u64,
    store_compactions: u64,
    store_expired: u64,
    store_faults: u64,
    cluster_migrations: u64,
    cluster_rehomes: u64,
    cluster_owner_restarts: u64,
    cluster_replayed_chunks: u64,
    // Histograms.
    stream_length: Histogram,
    dfsm_state_count: Histogram,
    match_to_access_cycles: Histogram,
    prefetch_lead_refs: Histogram,
    worker_lag_cycles: Histogram,
    serve_queue_depth: Histogram,
    // Correlation.
    per_stream: BTreeMap<u32, StreamMetrics>,
    /// Frames and events drained per serving shard (utilization).
    per_shard: BTreeMap<u32, (u64, u64)>,
    /// Issue bookkeeping per block, for lead-distance in references.
    pending_issue_ref: HashMap<u64, u64>,
}

impl MetricsRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        MetricsRecorder::default()
    }

    /// Prefetches issued.
    #[must_use]
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetches_issued
    }

    /// Resolved outcomes with the given fate.
    #[must_use]
    pub fn outcomes(&self, fate: PrefetchFate) -> u64 {
        self.outcomes[fate as usize]
    }

    /// Completed optimization cycles observed.
    #[must_use]
    pub fn cycles_completed(&self) -> u64 {
        self.cycles_completed
    }

    /// Cycles started (completed cycles plus any still profiling).
    #[must_use]
    pub fn cycles_started(&self) -> u64 {
        self.cycles_started
    }

    /// DFSMs built and injected.
    #[must_use]
    pub fn dfsms_built(&self) -> u64 {
        self.dfsms_built
    }

    /// Awake/hibernate boundaries crossed, both directions summed.
    #[must_use]
    pub fn phase_transitions_total(&self) -> u64 {
        self.phase_transitions_awake + self.phase_transitions_hibernate
    }

    /// Sum of traced references over all completed cycles.
    #[must_use]
    pub fn traced_refs_total(&self) -> u64 {
        self.traced_refs_total
    }

    /// Streams accepted for prefetching, summed over cycles.
    #[must_use]
    pub fn streams_detected(&self) -> u64 {
        self.streams_detected
    }

    /// De-optimizations observed (full and partial).
    #[must_use]
    pub fn deopts(&self) -> u64 {
        self.deopts
    }

    /// Partial (single-stream) de-optimizations observed.
    #[must_use]
    pub fn partial_deopts(&self) -> u64 {
        self.partial_deopts
    }

    /// Guard trips observed for one guard kind.
    #[must_use]
    pub fn guard_trips(&self, guard: GuardKind) -> u64 {
        self.guard_trips[guard as usize]
    }

    /// Guard trips observed, all kinds summed.
    #[must_use]
    pub fn guard_trips_total(&self) -> u64 {
        self.guard_trips.iter().sum()
    }

    /// Effective duty cycle reported by the most recent phase
    /// transition.
    #[must_use]
    pub fn last_duty_cycle(&self) -> f64 {
        self.last_duty_cycle
    }

    /// Per-stream quality, keyed by stream id.
    #[must_use]
    pub fn per_stream(&self) -> &BTreeMap<u32, StreamMetrics> {
        &self.per_stream
    }

    /// The stream-length histogram.
    #[must_use]
    pub fn stream_length(&self) -> &Histogram {
        &self.stream_length
    }

    /// The DFSM state-count histogram (one sample per build).
    #[must_use]
    pub fn dfsm_state_count(&self) -> &Histogram {
        &self.dfsm_state_count
    }

    /// The match-to-access latency histogram (cycles from prefetch
    /// issue to the demand access, over useful and late outcomes).
    #[must_use]
    pub fn match_to_access_cycles(&self) -> &Histogram {
        &self.match_to_access_cycles
    }

    /// The prefetch lead-distance histogram (demand references between
    /// issue and resolution).
    #[must_use]
    pub fn prefetch_lead_refs(&self) -> &Histogram {
        &self.prefetch_lead_refs
    }

    /// Traces handed to the background analysis worker.
    #[must_use]
    pub fn analysis_handoffs(&self) -> u64 {
        self.analysis_handoffs
    }

    /// Background analysis results installed in time.
    #[must_use]
    pub fn analyses_applied(&self) -> u64 {
        self.analysis_applied
    }

    /// Background analysis results discarded (worker starved).
    #[must_use]
    pub fn analyses_starved(&self) -> u64 {
        self.analysis_starved
    }

    /// The worker-lag histogram: simulated cycles each background
    /// analysis overlapped execution, one sample per handoff that
    /// resolved (applied or starved).
    #[must_use]
    pub fn worker_lag_cycles(&self) -> &Histogram {
        &self.worker_lag_cycles
    }

    /// Crash-consistent checkpoints captured. Reconciles with the final
    /// `RunReport`'s `snapshots` counter on a supervised run.
    #[must_use]
    pub fn recovery_snapshots(&self) -> u64 {
        self.recovery_snapshots
    }

    /// Edit-journal inspections during crash recovery.
    #[must_use]
    pub fn recovery_replays(&self) -> u64 {
        self.recovery_replays
    }

    /// Journal inspections that actually rolled a torn commit forward.
    #[must_use]
    pub fn recovery_rollforwards(&self) -> u64 {
        self.recovery_rollforwards
    }

    /// Supervised restarts from a snapshot. Reconciles with the final
    /// `RunReport`'s `restarts` counter.
    #[must_use]
    pub fn recovery_restarts(&self) -> u64 {
        self.recovery_restarts
    }

    /// Times the supervisor's restart circuit breaker opened (0 or 1
    /// per supervised run).
    #[must_use]
    pub fn recovery_gave_ups(&self) -> u64 {
        self.recovery_gave_up
    }

    /// Total modeled backoff charged before restarts, in simulated
    /// cycles.
    #[must_use]
    pub fn recovery_backoff_cycles(&self) -> u64 {
        self.recovery_backoff_cycles
    }

    /// Tenant sessions the serving layer admitted and opened.
    /// Reconciles with `ServeReport::opened`.
    #[must_use]
    pub fn serve_sessions_opened(&self) -> u64 {
        self.serve_opened
    }

    /// Tenant sessions opened per prefetch backend, indexed by backend
    /// wire code (0 = Dyn-pref, 1 = Pangloss, 2 = Triangel).
    /// Reconciles with `ServeReport::opened_by_backend`; the entries
    /// sum to [`MetricsRecorder::serve_sessions_opened`].
    #[must_use]
    pub fn serve_sessions_opened_by_backend(&self) -> [u64; 3] {
        self.serve_opened_by_backend
    }

    /// Cold tenant sessions evicted to a snapshot plus replay tail.
    /// Reconciles with `ServeReport::evicted`.
    #[must_use]
    pub fn serve_sessions_evicted(&self) -> u64 {
        self.serve_evicted
    }

    /// Evicted tenant sessions rehydrated on a later frame.
    /// Reconciles with `ServeReport::resumed`.
    #[must_use]
    pub fn serve_sessions_resumed(&self) -> u64 {
        self.serve_resumed
    }

    /// `OpenSession` requests refused with a typed `Busy` frame.
    /// Reconciles with `ServeReport::busy`.
    #[must_use]
    pub fn serve_busy_total(&self) -> u64 {
        self.serve_busy
    }

    /// Trace chunks shed for one serve budget kind.
    #[must_use]
    pub fn serve_shed_by(&self, kind: ServeBudgetKind) -> u64 {
        self.serve_shed[kind as usize]
    }

    /// Trace chunks shed, all budget kinds summed. Reconciles with
    /// `ServeReport::shed`.
    #[must_use]
    pub fn serve_shed_total(&self) -> u64 {
        self.serve_shed.iter().sum()
    }

    /// Tail events replayed while rehydrating evicted sessions.
    #[must_use]
    pub fn serve_replayed_events(&self) -> u64 {
        self.serve_replayed_events
    }

    /// The shard mailbox queue-depth histogram (one sample per shard
    /// per pump).
    #[must_use]
    pub fn serve_queue_depth(&self) -> &Histogram {
        &self.serve_queue_depth
    }

    /// `(frames, events)` drained per serving shard — the per-shard
    /// utilization table.
    #[must_use]
    pub fn serve_per_shard(&self) -> &BTreeMap<u32, (u64, u64)> {
        &self.per_shard
    }

    /// Tenants durably spilled to the store (and dropped from memory).
    #[must_use]
    pub fn store_spilled(&self) -> u64 {
        self.store_spilled
    }

    /// Bytes of record payload durably spilled.
    #[must_use]
    pub fn store_spilled_bytes(&self) -> u64 {
        self.store_spilled_bytes
    }

    /// Spilled tenants loaded back from the store for rehydration.
    #[must_use]
    pub fn store_loaded(&self) -> u64 {
        self.store_loaded
    }

    /// Bytes of verified record payload loaded back.
    #[must_use]
    pub fn store_loaded_bytes(&self) -> u64 {
        self.store_loaded_bytes
    }

    /// Store compaction passes completed.
    #[must_use]
    pub fn store_compactions(&self) -> u64 {
        self.store_compactions
    }

    /// Dead tenants expired past their TTL.
    #[must_use]
    pub fn store_expired(&self) -> u64 {
        self.store_expired
    }

    /// Storage faults observed (every one degraded gracefully).
    #[must_use]
    pub fn store_faults(&self) -> u64 {
        self.store_faults
    }

    /// Planned tenant migrations completed by the cluster router.
    #[must_use]
    pub fn cluster_migrations(&self) -> u64 {
        self.cluster_migrations
    }

    /// Crash-driven tenant re-homes completed by the cluster router.
    #[must_use]
    pub fn cluster_rehomes(&self) -> u64 {
        self.cluster_rehomes
    }

    /// Dead owner processes restarted by the cluster supervisor.
    #[must_use]
    pub fn cluster_owner_restarts(&self) -> u64 {
        self.cluster_owner_restarts
    }

    /// Journaled chunks replayed during migrations, re-homes and owner restarts.
    #[must_use]
    pub fn cluster_replayed_chunks(&self) -> u64 {
        self.cluster_replayed_chunks
    }

    /// Renders everything in Prometheus text exposition format.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter(
            &mut out,
            "hds_phase_transitions_total",
            "Awake/hibernate boundaries crossed (both directions).",
            self.phase_transitions_awake + self.phase_transitions_hibernate,
        );
        counter(
            &mut out,
            "hds_cycles_started_total",
            "Profile->analyze->optimize cycles started.",
            self.cycles_started,
        );
        counter(
            &mut out,
            "hds_cycles_completed_total",
            "Cycles whose awake phase (and analysis) completed.",
            self.cycles_completed,
        );
        counter(
            &mut out,
            "hds_traced_refs_total",
            "References traced across all completed cycles.",
            self.traced_refs_total,
        );
        counter(
            &mut out,
            "hds_streams_detected_total",
            "Hot data streams accepted for prefetching.",
            self.streams_detected,
        );
        counter(
            &mut out,
            "hds_dfsms_built_total",
            "Prefix-matching DFSMs built and injected.",
            self.dfsms_built,
        );
        counter(
            &mut out,
            "hds_prefetches_issued_total",
            "Prefetch instructions issued.",
            self.prefetches_issued,
        );
        counter(
            &mut out,
            "hds_deoptimizations_total",
            "Times injected code was removed (full and partial).",
            self.deopts,
        );
        counter(
            &mut out,
            "hds_partial_deoptimizations_total",
            "Times a single low-accuracy stream's checks were removed.",
            self.partial_deopts,
        );
        counter(
            &mut out,
            "hds_analysis_handoffs_total",
            "Traces handed to the background analysis worker.",
            self.analysis_handoffs,
        );
        counter(
            &mut out,
            "hds_analysis_applied_total",
            "Background analysis results installed in time.",
            self.analysis_applied,
        );
        counter(
            &mut out,
            "hds_analysis_starved_total",
            "Background analysis results discarded (worker starved).",
            self.analysis_starved,
        );
        counter(
            &mut out,
            "hds_recovery_snapshots_total",
            "Crash-consistent checkpoints captured at phase boundaries.",
            self.recovery_snapshots,
        );
        counter(
            &mut out,
            "hds_recovery_replays_total",
            "Edit-journal inspections during crash recovery.",
            self.recovery_replays,
        );
        counter(
            &mut out,
            "hds_recovery_rollforwards_total",
            "Torn edits rolled forward from the write-ahead journal.",
            self.recovery_rollforwards,
        );
        counter(
            &mut out,
            "hds_recovery_restarts_total",
            "Supervised restarts from a snapshot.",
            self.recovery_restarts,
        );
        counter(
            &mut out,
            "hds_recovery_gave_up_total",
            "Times the restart circuit breaker opened.",
            self.recovery_gave_up,
        );
        counter(
            &mut out,
            "hds_recovery_backoff_cycles_total",
            "Modeled backoff charged before restarts (simulated cycles).",
            self.recovery_backoff_cycles,
        );
        counter(
            &mut out,
            "hds_serve_sessions_opened_total",
            "Tenant sessions admitted and opened by the serving layer.",
            self.serve_opened,
        );
        let _ = writeln!(
            out,
            "# HELP hds_serve_sessions_opened_by_backend_total Tenant sessions opened per prefetch backend."
        );
        let _ = writeln!(
            out,
            "# TYPE hds_serve_sessions_opened_by_backend_total counter"
        );
        for (code, label) in [(0, "dyn-pref"), (1, "pangloss"), (2, "triangel")] {
            let _ = writeln!(
                out,
                "hds_serve_sessions_opened_by_backend_total{{backend=\"{}\"}} {}",
                label, self.serve_opened_by_backend[code]
            );
        }
        counter(
            &mut out,
            "hds_serve_sessions_evicted_total",
            "Cold tenant sessions evicted to snapshot plus replay tail.",
            self.serve_evicted,
        );
        counter(
            &mut out,
            "hds_serve_sessions_resumed_total",
            "Evicted tenant sessions rehydrated on a later frame.",
            self.serve_resumed,
        );
        counter(
            &mut out,
            "hds_serve_busy_total",
            "OpenSession requests refused with a typed Busy frame.",
            self.serve_busy,
        );
        counter(
            &mut out,
            "hds_serve_replayed_events_total",
            "Tail events replayed while rehydrating evicted sessions.",
            self.serve_replayed_events,
        );
        let _ = writeln!(
            out,
            "# HELP hds_serve_shed_total Trace chunks shed by serve budget kind."
        );
        let _ = writeln!(out, "# TYPE hds_serve_shed_total counter");
        for kind in ServeBudgetKind::ALL {
            let _ = writeln!(
                out,
                "hds_serve_shed_total{{budget=\"{}\"}} {}",
                kind.label(),
                self.serve_shed[kind as usize]
            );
        }
        counter(
            &mut out,
            "hds_store_spilled_total",
            "Tenants durably spilled to the cold-tenant store.",
            self.store_spilled,
        );
        counter(
            &mut out,
            "hds_store_spilled_bytes_total",
            "Bytes of record payload durably spilled.",
            self.store_spilled_bytes,
        );
        counter(
            &mut out,
            "hds_store_loaded_total",
            "Spilled tenants loaded back for rehydration.",
            self.store_loaded,
        );
        counter(
            &mut out,
            "hds_store_loaded_bytes_total",
            "Bytes of verified record payload loaded back.",
            self.store_loaded_bytes,
        );
        counter(
            &mut out,
            "hds_store_compactions_total",
            "Store compaction passes completed.",
            self.store_compactions,
        );
        counter(
            &mut out,
            "hds_store_expired_total",
            "Dead tenants expired past their TTL.",
            self.store_expired,
        );
        counter(
            &mut out,
            "hds_store_faults_total",
            "Storage faults observed (all degraded gracefully).",
            self.store_faults,
        );
        counter(
            &mut out,
            "hds_cluster_migrations_total",
            "Planned tenant migrations between owner processes.",
            self.cluster_migrations,
        );
        counter(
            &mut out,
            "hds_cluster_rehomes_total",
            "Crash-driven tenant re-homes onto surviving owners.",
            self.cluster_rehomes,
        );
        counter(
            &mut out,
            "hds_cluster_owner_restarts_total",
            "Dead owner processes restarted by the cluster supervisor.",
            self.cluster_owner_restarts,
        );
        counter(
            &mut out,
            "hds_cluster_replayed_chunks_total",
            "Journaled chunks replayed during migrations, re-homes and owner restarts.",
            self.cluster_replayed_chunks,
        );
        let _ = writeln!(
            out,
            "# HELP hds_guard_trips_total Budget-guard trips by guard kind."
        );
        let _ = writeln!(out, "# TYPE hds_guard_trips_total counter");
        for guard in GuardKind::ALL {
            let _ = writeln!(
                out,
                "hds_guard_trips_total{{guard=\"{}\"}} {}",
                guard.label(),
                self.guard_trips[guard as usize]
            );
        }
        let _ = writeln!(
            out,
            "# HELP hds_prefetch_outcomes_total Resolved prefetches by fate."
        );
        let _ = writeln!(out, "# TYPE hds_prefetch_outcomes_total counter");
        for fate in [
            PrefetchFate::Useful,
            PrefetchFate::Late,
            PrefetchFate::Polluted,
        ] {
            let _ = writeln!(
                out,
                "hds_prefetch_outcomes_total{{fate=\"{}\"}} {}",
                fate.label(),
                self.outcomes[fate as usize]
            );
        }
        let _ = writeln!(
            out,
            "# HELP hds_duty_cycle Effective awake fraction of dynamic checks."
        );
        let _ = writeln!(out, "# TYPE hds_duty_cycle gauge");
        let _ = writeln!(out, "hds_duty_cycle {}", self.last_duty_cycle);

        let histogram = |out: &mut String, name: &str, help: &str, h: &Histogram| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (bound, cumulative) in h.cumulative_buckets() {
                let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        };
        histogram(
            &mut out,
            "hds_stream_length_refs",
            "Accepted hot-stream lengths in references.",
            &self.stream_length,
        );
        histogram(
            &mut out,
            "hds_dfsm_states",
            "DFSM state counts per built machine.",
            &self.dfsm_state_count,
        );
        histogram(
            &mut out,
            "hds_match_to_access_cycles",
            "Cycles from prefetch issue to the demand access.",
            &self.match_to_access_cycles,
        );
        histogram(
            &mut out,
            "hds_prefetch_lead_refs",
            "Demand references between prefetch issue and resolution.",
            &self.prefetch_lead_refs,
        );
        histogram(
            &mut out,
            "hds_worker_lag_cycles",
            "Simulated cycles background analyses overlapped execution.",
            &self.worker_lag_cycles,
        );
        histogram(
            &mut out,
            "hds_serve_queue_depth",
            "Shard mailbox depth at each pump.",
            &self.serve_queue_depth,
        );
        for (metric, help, pick) in [
            (
                "hds_serve_shard_frames_total",
                "Frames drained per serving shard.",
                0usize,
            ),
            (
                "hds_serve_shard_events_total",
                "Workload events fed per serving shard.",
                1usize,
            ),
        ] {
            let _ = writeln!(out, "# HELP {metric} {help}");
            let _ = writeln!(out, "# TYPE {metric} counter");
            for (shard, drained) in &self.per_shard {
                let value = if pick == 0 { drained.0 } else { drained.1 };
                let _ = writeln!(out, "{metric}{{shard=\"{shard}\"}} {value}");
            }
        }

        for (metric, help, f) in [
            (
                "hds_stream_prefetch_accuracy",
                "Per-stream fraction of issued prefetches that fully hit.",
                StreamMetrics::accuracy as fn(&StreamMetrics) -> f64,
            ),
            (
                "hds_stream_prefetch_coverage",
                "Per-stream fraction of issued prefetches whose access arrived.",
                StreamMetrics::coverage,
            ),
            (
                "hds_stream_prefetch_timeliness",
                "Per-stream fraction of arrived prefetches that were in time.",
                StreamMetrics::timeliness,
            ),
        ] {
            let _ = writeln!(out, "# HELP {metric} {help}");
            let _ = writeln!(out, "# TYPE {metric} gauge");
            for (id, s) in &self.per_stream {
                let _ = writeln!(out, "{metric}{{stream=\"{id}\"}} {}", f(s));
            }
        }
        let _ = writeln!(
            out,
            "# HELP hds_stream_prefetches_issued Per-stream prefetches issued."
        );
        let _ = writeln!(out, "# TYPE hds_stream_prefetches_issued gauge");
        for (id, s) in &self.per_stream {
            let _ = writeln!(
                out,
                "hds_stream_prefetches_issued{{stream=\"{id}\"}} {}",
                s.issued
            );
        }
        out
    }
}

impl Observer for MetricsRecorder {
    fn on(&mut self, event: &Event) {
        match event {
            Event::PhaseTransition(e) => {
                match e.to {
                    PhaseKind::Awake => self.phase_transitions_awake += 1,
                    PhaseKind::Hibernating => self.phase_transitions_hibernate += 1,
                }
                self.last_duty_cycle = e.duty_cycle;
            }
            Event::CycleStart(_) => {
                self.cycles_started += 1;
                // Stale correlation entries from a de-optimized cycle
                // would mis-attribute lead distances across cycles.
                self.pending_issue_ref.clear();
            }
            Event::CycleEnd(e) => {
                self.cycles_completed += 1;
                self.traced_refs_total += e.traced_refs;
            }
            Event::StreamDetected(e) => {
                self.streams_detected += 1;
                self.stream_length.record(e.len as u64);
            }
            Event::DfsmBuilt(e) => {
                self.dfsms_built += 1;
                self.dfsm_state_count.record(e.states as u64);
            }
            Event::PrefetchIssued(e) => {
                self.prefetches_issued += 1;
                self.per_stream.entry(e.stream_id).or_default().issued += 1;
                self.pending_issue_ref.entry(e.block).or_insert(e.at_ref);
            }
            Event::PrefetchOutcome(e) => {
                self.outcomes[e.fate as usize] += 1;
                let s = self.per_stream.entry(e.stream_id).or_default();
                match e.fate {
                    PrefetchFate::Useful => s.useful += 1,
                    PrefetchFate::Late => s.late += 1,
                    PrefetchFate::Polluted => s.polluted += 1,
                }
                if e.fate != PrefetchFate::Polluted {
                    self.match_to_access_cycles.record(e.latency_cycles());
                }
                if let Some(issue_ref) = self.pending_issue_ref.remove(&e.block) {
                    if e.fate != PrefetchFate::Polluted {
                        self.prefetch_lead_refs
                            .record(e.resolved_at_ref.saturating_sub(issue_ref));
                    }
                }
            }
            Event::Deoptimize(e) => {
                self.deopts += 1;
                self.partial_deopts += u64::from(e.partial);
            }
            Event::GuardTripped(e) => self.guard_trips[e.guard as usize] += 1,
            Event::AnalysisHandoff(_) => self.analysis_handoffs += 1,
            Event::AnalysisApplied(e) => {
                self.analysis_applied += 1;
                self.worker_lag_cycles.record(e.lag_cycles);
            }
            Event::AnalysisStarved(e) => {
                self.analysis_starved += 1;
                self.worker_lag_cycles.record(e.lag_cycles);
            }
            Event::RecoverySnapshot(_) => self.recovery_snapshots += 1,
            Event::RecoveryReplay(e) => {
                self.recovery_replays += 1;
                self.recovery_rollforwards += u64::from(e.rolled_forward);
            }
            Event::RecoveryRestart(e) => {
                self.recovery_restarts += 1;
                self.recovery_backoff_cycles += e.backoff_cycles;
            }
            Event::RecoveryGaveUp(_) => self.recovery_gave_up += 1,
            Event::ServeSessionOpened(e) => {
                self.serve_opened += 1;
                if let Some(slot) = self.serve_opened_by_backend.get_mut(e.backend as usize) {
                    *slot += 1;
                }
            }
            Event::ServeSessionEvicted(_) => self.serve_evicted += 1,
            Event::ServeSessionResumed(e) => {
                self.serve_resumed += 1;
                self.serve_replayed_events += e.replayed_events;
            }
            Event::ServeShed(e) => self.serve_shed[e.kind as usize] += 1,
            Event::ServeBusy(_) => self.serve_busy += 1,
            Event::ServeShardPump(e) => {
                self.serve_queue_depth.record(e.queued);
                let shard = self.per_shard.entry(e.shard).or_default();
                shard.0 += e.frames;
                shard.1 += e.events;
            }
            Event::StoreSpilled(e) => {
                self.store_spilled += 1;
                self.store_spilled_bytes += e.bytes;
            }
            Event::StoreLoaded(e) => {
                self.store_loaded += 1;
                self.store_loaded_bytes += e.bytes;
            }
            Event::StoreCompacted(_) => self.store_compactions += 1,
            Event::StoreExpired(_) => self.store_expired += 1,
            Event::StoreFault(_) => self.store_faults += 1,
            Event::ClusterMigrated(e) => {
                self.cluster_migrations += 1;
                self.cluster_replayed_chunks += e.replayed_chunks;
            }
            Event::ClusterRehomed(e) => {
                self.cluster_rehomes += 1;
                self.cluster_replayed_chunks += e.replayed_chunks;
            }
            Event::ClusterOwnerRestarted(e) => {
                self.cluster_owner_restarts += 1;
                self.cluster_replayed_chunks += e.replayed_chunks;
            }
            Event::Span(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1025);
        let buckets = h.cumulative_buckets();
        // Value 0 -> bucket with bound 0 (1 sample); 1 -> bound 1;
        // 2,3 -> bound 3; 4,7 -> bound 7; 8 -> bound 15; 1000 -> bound 1023.
        assert_eq!(buckets[0], (0, 1));
        assert_eq!(buckets[1], (1, 2));
        assert_eq!(buckets[2], (3, 4));
        assert_eq!(buckets[3], (7, 6));
        assert_eq!(buckets[4], (15, 7));
        assert_eq!(*buckets.last().unwrap(), (1023, 8));
        assert!((h.mean() - 1025.0 / 8.0).abs() < 1e-9);
    }

    fn outcome(stream: u32, block: u64, fate: PrefetchFate) -> PrefetchOutcome {
        PrefetchOutcome {
            stream_id: stream,
            block,
            fate,
            issued_at_cycle: 100,
            resolved_at_cycle: 350,
            resolved_at_ref: 20,
        }
    }

    #[test]
    fn per_stream_quality_ratios() {
        let mut m = MetricsRecorder::new();
        for block in 0..4 {
            m.on(&Event::PrefetchIssued(PrefetchIssued {
                stream_id: 7,
                addr: block * 32,
                block,
                at_cycle: 100,
                at_ref: 10,
            }));
        }
        m.on(&Event::PrefetchOutcome(outcome(7, 0, PrefetchFate::Useful)));
        m.on(&Event::PrefetchOutcome(outcome(7, 1, PrefetchFate::Useful)));
        m.on(&Event::PrefetchOutcome(outcome(7, 2, PrefetchFate::Late)));
        m.on(&Event::PrefetchOutcome(outcome(
            7,
            3,
            PrefetchFate::Polluted,
        )));
        let s = m.per_stream()[&7];
        assert_eq!(s.issued, 4);
        assert!((s.accuracy() - 0.5).abs() < 1e-9);
        assert!((s.coverage() - 0.75).abs() < 1e-9);
        assert!((s.timeliness() - 2.0 / 3.0).abs() < 1e-9);
        // Lead distance recorded for the three non-polluted outcomes.
        assert_eq!(m.prefetch_lead_refs().count(), 3);
        assert_eq!(m.match_to_access_cycles().count(), 3);
    }

    #[test]
    fn guard_trips_and_partial_deopts_are_counted() {
        let mut m = MetricsRecorder::new();
        m.on(&Event::GuardTripped(GuardTripped {
            guard: GuardKind::GrammarRules,
            budget: 100,
            observed: 101,
            opt_cycle: 0,
            at_cycle: 50,
        }));
        m.on(&Event::GuardTripped(GuardTripped {
            guard: GuardKind::PrefetchQueue,
            budget: 8,
            observed: 12,
            opt_cycle: 1,
            at_cycle: 90,
        }));
        m.on(&Event::Deoptimize(Deoptimize {
            at_cycle: 100,
            opt_cycle: 1,
            partial: true,
            stream_id: Some(3),
        }));
        m.on(&Event::Deoptimize(Deoptimize::default()));
        assert_eq!(m.guard_trips(GuardKind::GrammarRules), 1);
        assert_eq!(m.guard_trips(GuardKind::AnalysisCycles), 0);
        assert_eq!(m.guard_trips_total(), 2);
        assert_eq!(m.deopts(), 2);
        assert_eq!(m.partial_deopts(), 1);
        let text = m.render_prometheus();
        assert!(text.contains("hds_guard_trips_total{guard=\"grammar_rules\"} 1"));
        assert!(text.contains("hds_guard_trips_total{guard=\"dfsm_states\"} 0"));
        assert!(text.contains("hds_partial_deoptimizations_total 1"));
    }

    #[test]
    fn analysis_counters_and_worker_lag_histogram() {
        let mut m = MetricsRecorder::new();
        m.on(&Event::AnalysisHandoff(AnalysisHandoff {
            opt_cycle: 0,
            at_cycle: 10,
            trace_len: 100,
        }));
        m.on(&Event::AnalysisApplied(AnalysisApplied {
            opt_cycle: 0,
            handoff_at_cycle: 10,
            at_cycle: 74,
            lag_cycles: 64,
        }));
        m.on(&Event::AnalysisHandoff(AnalysisHandoff {
            opt_cycle: 1,
            at_cycle: 200,
            trace_len: 100,
        }));
        m.on(&Event::AnalysisStarved(AnalysisStarved {
            opt_cycle: 1,
            handoff_at_cycle: 200,
            at_cycle: 1000,
            lag_cycles: 800,
        }));
        assert_eq!(m.analysis_handoffs(), 2);
        assert_eq!(m.analyses_applied(), 1);
        assert_eq!(m.analyses_starved(), 1);
        assert_eq!(m.worker_lag_cycles().count(), 2);
        assert_eq!(m.worker_lag_cycles().sum(), 864);
        m.on(&Event::GuardTripped(GuardTripped {
            guard: GuardKind::WorkerLag,
            budget: 500,
            observed: 800,
            opt_cycle: 1,
            at_cycle: 1000,
        }));
        assert_eq!(m.guard_trips(GuardKind::WorkerLag), 1);
        let text = m.render_prometheus();
        assert!(text.contains("hds_analysis_handoffs_total 2"));
        assert!(text.contains("hds_analysis_starved_total 1"));
        assert!(text.contains("hds_guard_trips_total{guard=\"worker_lag\"} 1"));
        assert!(text.contains("hds_worker_lag_cycles_count 2"));
    }

    #[test]
    fn recovery_counters_accumulate() {
        let mut m = MetricsRecorder::new();
        m.on(&Event::RecoverySnapshot(RecoverySnapshot {
            opt_cycle: 0,
            at_cycle: 100,
            events_consumed: 10,
            bytes: 512,
        }));
        m.on(&Event::RecoverySnapshot(RecoverySnapshot {
            opt_cycle: 1,
            at_cycle: 300,
            events_consumed: 30,
            bytes: 768,
        }));
        m.on(&Event::RecoveryReplay(RecoveryReplay {
            events_consumed: 35,
            rolled_forward: true,
        }));
        m.on(&Event::RecoveryReplay(RecoveryReplay {
            events_consumed: 40,
            rolled_forward: false,
        }));
        m.on(&Event::RecoveryRestart(RecoveryRestart {
            attempt: 1,
            resumed_at_event: 30,
            backoff_cycles: 1000,
        }));
        m.on(&Event::RecoveryRestart(RecoveryRestart {
            attempt: 2,
            resumed_at_event: 30,
            backoff_cycles: 2000,
        }));
        m.on(&Event::RecoveryGaveUp(RecoveryGaveUp {
            restarts: 2,
            crashes: 3,
        }));
        assert_eq!(m.recovery_snapshots(), 2);
        assert_eq!(m.recovery_replays(), 2);
        assert_eq!(m.recovery_rollforwards(), 1);
        assert_eq!(m.recovery_restarts(), 2);
        assert_eq!(m.recovery_gave_ups(), 1);
        assert_eq!(m.recovery_backoff_cycles(), 3000);
        let text = m.render_prometheus();
        assert!(text.contains("hds_recovery_snapshots_total 2"));
        assert!(text.contains("hds_recovery_rollforwards_total 1"));
        assert!(text.contains("hds_recovery_restarts_total 2"));
        assert!(text.contains("hds_recovery_backoff_cycles_total 3000"));
    }

    #[test]
    fn serve_counters_histograms_and_labels() {
        let mut m = MetricsRecorder::new();
        m.on(&Event::ServeSessionOpened(ServeSessionOpened {
            tenant: 1,
            shard: 0,
            backend: 0,
        }));
        m.on(&Event::ServeSessionOpened(ServeSessionOpened {
            tenant: 2,
            shard: 1,
            backend: 1,
        }));
        m.on(&Event::ServeSessionEvicted(ServeSessionEvicted {
            tenant: 1,
            shard: 0,
            snapshot_bytes: 512,
            tail_events: 3,
        }));
        m.on(&Event::ServeSessionResumed(ServeSessionResumed {
            tenant: 1,
            shard: 0,
            replayed_events: 3,
        }));
        m.on(&Event::ServeShed(ServeShed {
            tenant: 2,
            shard: 1,
            kind: ServeBudgetKind::TenantQueue,
            budget: 4,
            observed: 5,
        }));
        m.on(&Event::ServeShed(ServeShed {
            tenant: 2,
            shard: 1,
            kind: ServeBudgetKind::GlobalBytes,
            budget: 1024,
            observed: 2048,
        }));
        m.on(&Event::ServeBusy(ServeBusy {
            tenant: 3,
            shard: 1,
            budget: 2,
            observed: 2,
        }));
        m.on(&Event::ServeShardPump(ServeShardPump {
            shard: 0,
            queued: 4,
            frames: 4,
            events: 37,
        }));
        m.on(&Event::ServeShardPump(ServeShardPump {
            shard: 1,
            queued: 0,
            frames: 0,
            events: 0,
        }));
        assert_eq!(m.serve_sessions_opened(), 2);
        assert_eq!(m.serve_sessions_opened_by_backend(), [1, 1, 0]);
        assert_eq!(m.serve_sessions_evicted(), 1);
        assert_eq!(m.serve_sessions_resumed(), 1);
        assert_eq!(m.serve_replayed_events(), 3);
        assert_eq!(m.serve_busy_total(), 1);
        assert_eq!(m.serve_shed_by(ServeBudgetKind::TenantQueue), 1);
        assert_eq!(m.serve_shed_by(ServeBudgetKind::LiveSessions), 0);
        assert_eq!(m.serve_shed_total(), 2);
        assert_eq!(m.serve_queue_depth().count(), 2);
        assert_eq!(m.serve_queue_depth().sum(), 4);
        assert_eq!(m.serve_per_shard()[&0], (4, 37));
        let text = m.render_prometheus();
        assert!(text.contains("hds_serve_sessions_opened_total 2"));
        assert!(text.contains("hds_serve_sessions_opened_by_backend_total{backend=\"pangloss\"} 1"));
        assert!(text.contains("hds_serve_shed_total{budget=\"tenant_queue\"} 1"));
        assert!(text.contains("hds_serve_shed_total{budget=\"live_sessions\"} 0"));
        assert!(text.contains("hds_serve_busy_total 1"));
        assert!(text.contains("hds_serve_queue_depth_count 2"));
        assert!(text.contains("hds_serve_shard_frames_total{shard=\"0\"} 4"));
        assert!(text.contains("hds_serve_shard_events_total{shard=\"1\"} 0"));
    }

    #[test]
    fn empty_ratios_are_zero() {
        let s = StreamMetrics::default();
        assert_eq!(s.accuracy(), 0.0);
        assert_eq!(s.coverage(), 0.0);
        assert_eq!(s.timeliness(), 0.0);
    }

    #[test]
    fn prometheus_render_is_well_formed() {
        let mut m = MetricsRecorder::new();
        m.on(&Event::PrefetchIssued(PrefetchIssued {
            stream_id: 1,
            addr: 64,
            block: 2,
            at_cycle: 5,
            at_ref: 1,
        }));
        m.on(&Event::PrefetchOutcome(outcome(1, 2, PrefetchFate::Useful)));
        m.on(&Event::StreamDetected(StreamDetected {
            opt_cycle: 0,
            stream_id: 1,
            len: 12,
            head_len: 2,
        }));
        let text = m.render_prometheus();
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment line: {line}"
                );
                continue;
            }
            // metric[{labels}] value
            let (name_part, value) = line.rsplit_once(' ').expect("name and value");
            assert!(value.parse::<f64>().is_ok(), "bad value in: {line}");
            let name = name_part.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name in: {line}"
            );
        }
        assert!(text.contains("hds_prefetches_issued_total 1"));
        assert!(text.contains("hds_stream_prefetch_accuracy{stream=\"1\"} 1"));
        assert!(text.contains("hds_stream_length_refs_bucket{le=\"+Inf\"} 1"));
    }
}
