//! Metric names and units, the per-run measurements, and the JSON
//! result line.

use crate::stats::{median, percentile, ratio};

/// The end-to-end metrics every untraced run prints, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "events/s"),
    ("chunk_p50_ms", "ms"),
    ("chunk_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles_ratio", "ratio"),
];

/// The per-layer metrics every traced run prints, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.event_ns", "ns"),
    ("core.boundary_ms", "ms"),
    ("core.boundaries", "count"),
    ("core.snapshot_bytes", "bytes"),
    ("core.resume_ms", "ms"),
    ("memsim.access_ns", "ns"),
    ("memsim.l1_miss_rate", "ratio"),
    ("memsim.l2_miss_rate", "ratio"),
    ("memsim.prefetch_accuracy", "ratio"),
    ("memsim.sim_memory_cycles", "cycles"),
    ("bursty.checks", "count"),
    ("bursty.traced_refs", "count"),
    ("bursty.sim_check_cycles", "cycles"),
    ("sequitur.append_ns", "ns"),
    ("sequitur.grammar_size", "symbols"),
    ("sequitur.sim_recording_cycles", "cycles"),
    ("hotstream.analyze_ms", "ms"),
    ("hotstream.streams", "count"),
    ("hotstream.sim_analysis_cycles", "cycles"),
    ("dfsm.build_ms", "ms"),
    ("dfsm.step_ns", "ns"),
    ("dfsm.states", "count"),
    ("dfsm.sim_matching_cycles", "cycles"),
    ("vulcan.edit_ms", "ms"),
    ("vulcan.procs_modified", "count"),
    ("vulcan.sim_optimize_cycles", "cycles"),
    ("client.step_ms", "ms"),
    ("client.retries", "count"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.bytes_per_event", "bytes"),
    ("manager.handle_us", "us"),
    ("manager.frames", "count"),
    ("pump.busy_ms", "ms"),
    ("pump.events_per_pump", "events"),
    ("serve.evicted", "count"),
    ("serve.resumed", "count"),
    ("serve.replayed_events", "events"),
    ("serve.resident_bytes_peak", "bytes"),
    ("store.append_us", "us"),
    ("store.read_us", "us"),
    ("store.sync_us", "us"),
    ("store.bytes_written", "bytes"),
    ("store.bytes_read", "bytes"),
    ("store.write_amp", "ratio"),
    ("store.spilled", "count"),
    ("store.loaded", "count"),
    ("store.compactions", "count"),
    ("router.handle_us", "us"),
    ("router.tick_ms", "ms"),
    ("owner.tick_ms", "ms"),
    ("router.migrations", "count"),
    ("router.refreshes", "count"),
    ("router.replayed_chunks", "count"),
    ("cluster.migration_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("ledger.unattributed_ms", "ms"),
];

/// What one untraced measurement of a workload collected.
///
/// A run repeats identical work: every repetition hands over the same
/// chunks in the same order and times the same sequence of segments
/// (loop iterations, or chunks of `on_event` calls). On a shared host
/// the same segment's time varies with what the machine's other
/// tenants do, in swings that last seconds, while the fastest of a few
/// samples of it hardly moves. So the time-based metrics take, for
/// each segment and each chunk, the minimum over the repetitions — its
/// time when the host did not interfere — and the human-readable
/// output prints the unfiltered figures beside them.
///
/// Only the running minima and a few figures per repetition are kept,
/// so the benchmark's own memory does not grow with the number of
/// repetitions a run fits in, and `peak_rss_mb` does not move with the
/// host's speed.
#[derive(Debug, Default)]
pub struct Measured {
    /// Trace events one repetition processes.
    pub events_per_rep: u64,
    /// Repetitions timed.
    pub reps: usize,
    /// Per timed segment, its fastest time over the repetitions, in s.
    best_times_s: Vec<f64>,
    /// Per chunk, its fastest latency over the repetitions, in ms.
    best_chunk_ms: Vec<f64>,
    /// Whether a repetition timed a different number of segments or
    /// chunks than the first.
    misaligned: bool,
    /// Seconds inside the system's calls, every repetition, unfiltered.
    busy_s: f64,
    /// Chunks timed, every repetition.
    chunks: usize,
    /// Each repetition's own p50 and p99 chunk latency, unfiltered.
    rep_quantiles_ms: Vec<(f64, f64)>,
    /// Set-up times, one per set-up, in the order they ran.
    setup_s: Vec<f64>,
    /// Simulated cycles of the optimized programs, one repetition.
    pub opt_cycles: u64,
    /// Simulated cycles of the same programs' baseline runs.
    pub base_cycles: u64,
    /// Operations attempted: chunks handed over plus result checks.
    pub attempted: u64,
    /// Operations that failed: chunks shed, refused, rejected or
    /// retried, and result checks that did not hold.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

/// Consecutive set-ups whose fastest counts as one sample.
pub const SETUP_GROUP: usize = 5;

/// The median over groups of [`SETUP_GROUP`] consecutive set-ups of
/// each group's fastest.
fn setup_median(samples: &[f64]) -> f64 {
    let fastest: Vec<f64> = samples
        .chunks(SETUP_GROUP)
        .map(|g| g.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    median(&fastest)
}

/// Lowers each element of `best` to the matching one of `sample`, or
/// starts `best` from `sample`; `false` if their lengths differ.
fn keep_fastest(best: &mut Vec<f64>, sample: &[f64], first: bool) -> bool {
    if first {
        best.extend_from_slice(sample);
        return true;
    }
    if best.len() != sample.len() {
        return false;
    }
    for (b, s) in best.iter_mut().zip(sample) {
        *b = b.min(*s);
    }
    true
}

impl Measured {
    /// Records one result check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Records set-up times.
    pub fn add_setups(&mut self, samples: &[f64]) {
        self.setup_s.extend_from_slice(samples);
    }

    /// Records one repetition's timings.
    pub fn add_rep(&mut self, events: u64, times_s: &[f64], chunk_ms: &[f64]) {
        let first = self.reps == 0;
        if first {
            self.events_per_rep = events;
        }
        let expected = self.events_per_rep;
        self.check(events == expected, || {
            format!("a repetition processed {events} events, the first {expected}")
        });
        let aligned = keep_fastest(&mut self.best_times_s, times_s, first)
            & keep_fastest(&mut self.best_chunk_ms, chunk_ms, first);
        self.misaligned |= !aligned;
        self.reps += 1;
        self.busy_s += times_s.iter().sum::<f64>();
        self.chunks += chunk_ms.len();
        if let (Ok(p50), Ok(p99)) = (percentile(chunk_ms, 0.50), percentile(chunk_ms, 0.99)) {
            self.rep_quantiles_ms.push((p50, p99));
        }
    }

    /// Seconds inside the system's calls, every repetition, unfiltered.
    #[must_use]
    pub fn busy_s(&self) -> f64 {
        self.busy_s
    }

    /// Chunks timed, every repetition.
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Each chunk's fastest latency over the repetitions, in ms.
    #[must_use]
    pub fn best_chunk_ms(&self) -> &[f64] {
        &self.best_chunk_ms
    }

    /// Set-up times, in the order they ran.
    #[must_use]
    pub fn setup_s(&self) -> &[f64] {
        &self.setup_s
    }

    /// Events per second over every repetition, unfiltered.
    #[must_use]
    pub fn raw_events_per_s(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let events = self.events_per_rep as f64 * self.reps as f64;
        ratio(events, self.busy_s)
    }

    /// The end-to-end metrics, in [`END_TO_END`] order: the time-based
    /// ones from the per-segment and per-chunk minima over repetitions.
    ///
    /// # Errors
    ///
    /// When no repetition or set-up was timed, the repetitions do not
    /// line up, or a repetition has too few chunks for its percentiles.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Result<Vec<f64>, String> {
        if self.reps == 0 {
            return Err("no repetition was timed".into());
        }
        if self.misaligned {
            return Err("repetitions timed different numbers of segments".into());
        }
        if self.setup_s.is_empty() {
            return Err("no set-up was timed".into());
        }
        let busy: f64 = self.best_times_s.iter().sum();
        #[allow(clippy::cast_precision_loss)]
        let events_per_s = ratio(self.events_per_rep as f64, busy);
        let p50 = percentile(&self.best_chunk_ms, 0.50).map_err(|e| e.to_string())?;
        let p99 = percentile(&self.best_chunk_ms, 0.99).map_err(|e| e.to_string())?;
        let setup = setup_median(&self.setup_s);
        Ok(self.metrics(events_per_s, p50, p99, setup, peak_rss_mb))
    }

    /// The same metrics without the minimum over repetitions: overall
    /// events/s, the median over repetitions of each one's own p50 and
    /// p99, and the median set-up.
    #[must_use]
    pub fn raw_end_to_end(&self, peak_rss_mb: f64) -> Vec<f64> {
        let (p50, p99): (Vec<f64>, Vec<f64>) = self.rep_quantiles_ms.iter().copied().unzip();
        self.metrics(
            self.raw_events_per_s(),
            median(&p50),
            median(&p99),
            median(&self.setup_s),
            peak_rss_mb,
        )
    }

    fn metrics(&self, events_per_s: f64, p50: f64, p99: f64, setup_s: f64, rss: f64) -> Vec<f64> {
        #[allow(clippy::cast_precision_loss)]
        let sim = ratio(self.opt_cycles as f64, self.base_cycles as f64);
        vec![events_per_s, p50, p99, setup_s, rss, sim]
    }
}

/// The last line of a run's output: one JSON object.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &[f64],
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((name, unit), value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Process high-water resident set size, in MiB: `VmHWM` from
/// `/proc/self/status`. (`getrusage` would report the launching
/// process's size too: `ru_maxrss` survives `exec`.)
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names `BENCHMARK.json` declares for `key`, in order.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let Some(serde::Value::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| match m.get(f) {
                    Some(serde::Value::Str(s)) => s.clone(),
                    other => panic!("{key} entry field {f}: {other:?}"),
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    }

    #[test]
    fn printed_names_are_the_declared_names() {
        assert_eq!(owned(END_TO_END), declared("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &END_TO_END[..2], &[1.5, 0.25]);
        let doc: serde::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(doc.get("attempted"), Some(&serde::Value::U64(3)));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn time_metrics_take_the_fastest_repetition_of_each_segment() {
        let mut m = Measured::default();
        m.add_setups(&[5.0, 1.0, 5.0, 5.0, 5.0, 9.0, 2.0, 9.0, 9.0, 9.0, 3.0]);
        let ramp = |k: f64| -> Vec<f64> { (0..1000).map(|i| k * f64::from(i)).collect() };
        m.add_rep(100, &[1.0, 4.0], &ramp(2.0));
        m.add_rep(100, &[3.0, 2.0], &ramp(1.0));
        let e2e = m.end_to_end(1.0).unwrap();
        assert_eq!(e2e[0], 100.0 / 3.0);
        assert_eq!(e2e[1], 499.0);
        assert_eq!(e2e[3], 2.0, "median of the groups' fastest set-ups");
        assert_eq!(m.raw_events_per_s(), 200.0 / 10.0);
        assert_eq!(m.raw_end_to_end(1.0)[1], (998.0 + 499.0) / 2.0);
        m.add_rep(100, &[1.0], &ramp(1.0));
        assert!(m.end_to_end(1.0).is_err(), "misaligned repetitions");
        m.add_rep(7, &[1.0, 1.0], &ramp(1.0));
        assert_eq!(m.failed, 1);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 1.0);
    }
}
