//! JSONL export: one self-describing JSON record per event.

use std::io::Write;

use serde::Value;

use crate::events::{Event, PrefetchFate};
use crate::Observer;

/// An [`Observer`] that appends one JSON object per event to a writer,
/// newline-delimited. Every record carries an `"event"` tag naming its
/// kind, so the file is self-describing.
///
/// `cycle_end` records additionally carry the running global prefetch
/// `accuracy` / `coverage` / `timeliness`, so each line of the per-cycle
/// series is a complete snapshot on its own. Spans write nothing.
///
/// Write errors do not panic (observers are called from the optimizer's
/// hot path); they are counted and readable via
/// [`JsonlSink::write_errors`].
///
/// The sink flushes its writer when dropped — including during an
/// unwind — so a faulted run that panics (or a truncated-trace chaos
/// schedule that aborts a session early) never loses buffered tail
/// events.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    /// `None` only after [`JsonlSink::into_inner`] took the writer
    /// (the drop-flush guard then has nothing left to do).
    out: Option<W>,
    write_errors: u64,
    records: u64,
    // Running global tallies for the per-cycle quality snapshot.
    issued: u64,
    useful: u64,
    late: u64,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out: Some(out),
            write_errors: 0,
            records: 0,
            issued: 0,
            useful: 0,
            late: 0,
        }
    }

    /// Records successfully written.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Writes that failed (the records were dropped).
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }

    /// Flushes and returns the writer.
    ///
    /// # Errors
    ///
    /// Returns the flush error, if any.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        let mut out = self.out.take().expect("writer present until into_inner");
        out.flush()?;
        Ok(out)
    }

    #[allow(clippy::cast_precision_loss)]
    fn ratio(num: u64, den: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }
}

/// The drop-flush guard: buffered tail events survive early returns
/// and panics in the instrumented run. Flush errors here are ignored
/// (they were either already counted per-record, or there is no caller
/// left to report them to).
impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        if let Some(out) = self.out.as_mut() {
            let _ = out.flush();
        }
    }
}

impl<W: Write> Observer for JsonlSink<W> {
    fn on(&mut self, event: &Event) {
        if matches!(event, Event::Span(_)) {
            return;
        }
        let mut value = event.payload();
        let Value::Obj(fields) = &mut value else {
            return;
        };
        // Enums serialize as their variant names; the external schema
        // uses their lower-case labels.
        let mut relabel = |key: &str, label: &str| {
            for (k, v) in fields.iter_mut() {
                if k == key {
                    *v = Value::Str(label.to_string());
                }
            }
        };
        match event {
            Event::PrefetchIssued(_) => self.issued += 1,
            Event::PrefetchOutcome(e) => {
                match e.fate {
                    PrefetchFate::Useful => self.useful += 1,
                    PrefetchFate::Late => self.late += 1,
                    PrefetchFate::Polluted => {}
                }
                relabel("fate", e.fate.label());
            }
            Event::GuardTripped(e) => relabel("guard", e.guard.label()),
            Event::ServeShed(e) => relabel("kind", e.kind.label()),
            Event::CycleEnd(_) => {
                for (key, num, den) in [
                    ("prefetch_accuracy", self.useful, self.issued),
                    ("prefetch_coverage", self.useful + self.late, self.issued),
                    ("prefetch_timeliness", self.useful, self.useful + self.late),
                ] {
                    fields.push((key.to_string(), Value::F64(Self::ratio(num, den))));
                }
            }
            _ => {}
        }
        fields.insert(
            0,
            ("event".to_string(), Value::Str(event.name().to_string())),
        );
        let line = serde_json::to_string(&value).unwrap_or_else(|_| "null".to_string());
        let Some(out) = self.out.as_mut() else { return };
        match writeln!(out, "{line}") {
            Ok(()) => self.records += 1,
            Err(_) => self.write_errors += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::*;

    fn lines(sink: JsonlSink<Vec<u8>>) -> Vec<Value> {
        let buf = sink.into_inner().unwrap();
        String::from_utf8(buf)
            .unwrap()
            .lines()
            .map(|l| serde_json::parse_value_str(l).unwrap())
            .collect()
    }

    #[test]
    fn records_are_tagged_and_parse() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.on(&Event::CycleStart(CycleStart {
            opt_cycle: 0,
            at_cycle: 0,
        }));
        sink.on(&Event::PhaseTransition(PhaseTransition {
            at_cycle: 10,
            at_check: 2,
            to: PhaseKind::Hibernating,
            opt_cycle: 1,
            duty_cycle: 0.25,
        }));
        assert_eq!(sink.records(), 2);
        assert_eq!(sink.write_errors(), 0);
        let records = lines(sink);
        assert_eq!(
            records[0].get("event"),
            Some(&Value::Str("cycle_start".into()))
        );
        assert_eq!(
            records[1].get("event"),
            Some(&Value::Str("phase_transition".into()))
        );
        assert_eq!(
            records[1].get("to"),
            Some(&Value::Str("Hibernating".into()))
        );
        assert_eq!(records[1].get("duty_cycle"), Some(&Value::F64(0.25)));
    }

    #[test]
    fn cycle_end_carries_quality_snapshot() {
        let mut sink = JsonlSink::new(Vec::new());
        for block in 0..2u64 {
            sink.on(&Event::PrefetchIssued(PrefetchIssued {
                stream_id: 0,
                addr: block * 32,
                block,
                at_cycle: 1,
                at_ref: 0,
            }));
        }
        sink.on(&Event::PrefetchOutcome(PrefetchOutcome {
            stream_id: 0,
            block: 0,
            fate: PrefetchFate::Useful,
            issued_at_cycle: 1,
            resolved_at_cycle: 2,
            resolved_at_ref: 1,
        }));
        sink.on(&Event::CycleEnd(CycleEnd::default()));
        let records = lines(sink);
        let end = records.last().unwrap();
        assert_eq!(end.get("prefetch_accuracy"), Some(&Value::F64(0.5)));
        assert_eq!(end.get("prefetch_coverage"), Some(&Value::F64(0.5)));
        assert_eq!(end.get("prefetch_timeliness"), Some(&Value::F64(1.0)));
        // The outcome record uses the lower-case fate label.
        let outcome = records
            .iter()
            .find(|r| r.get("event") == Some(&Value::Str("prefetch_outcome".into())))
            .unwrap();
        assert_eq!(outcome.get("fate"), Some(&Value::Str("useful".into())));
    }

    #[test]
    fn guard_trips_use_stable_labels() {
        use crate::events::GuardKind;
        let mut sink = JsonlSink::new(Vec::new());
        sink.on(&Event::GuardTripped(GuardTripped {
            guard: GuardKind::DfsmStates,
            budget: 64,
            observed: 65,
            opt_cycle: 0,
            at_cycle: 10,
        }));
        let records = lines(sink);
        assert_eq!(
            records[0].get("event"),
            Some(&Value::Str("guard_tripped".into()))
        );
        assert_eq!(
            records[0].get("guard"),
            Some(&Value::Str("dfsm_states".into()))
        );
        assert_eq!(records[0].get("budget"), Some(&Value::U64(64)));
    }

    #[test]
    fn drop_flushes_buffered_tail() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        /// Counts flushes without consuming the shared tally on drop.
        struct FlushCounter(Arc<AtomicU64>);
        impl Write for FlushCounter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.0.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        }

        let flushes = Arc::new(AtomicU64::new(0));
        {
            let mut sink = JsonlSink::new(FlushCounter(Arc::clone(&flushes)));
            sink.on(&Event::CycleStart(CycleStart::default()));
            assert_eq!(flushes.load(Ordering::SeqCst), 0);
        }
        assert_eq!(flushes.load(Ordering::SeqCst), 1, "drop must flush");

        // During an unwind too.
        let flushes_panic = Arc::new(AtomicU64::new(0));
        let moved = Arc::clone(&flushes_panic);
        let _ = std::panic::catch_unwind(move || {
            let mut sink = JsonlSink::new(FlushCounter(moved));
            sink.on(&Event::CycleStart(CycleStart::default()));
            panic!("simulated faulted run");
        });
        assert_eq!(flushes_panic.load(Ordering::SeqCst), 1, "unwind must flush");

        // into_inner still hands the writer back (no double flush on drop).
        let flushes_inner = Arc::new(AtomicU64::new(0));
        let sink = JsonlSink::new(FlushCounter(Arc::clone(&flushes_inner)));
        let _writer = sink.into_inner().unwrap();
        assert_eq!(flushes_inner.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn analysis_events_are_tagged() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.on(&Event::AnalysisHandoff(AnalysisHandoff {
            opt_cycle: 0,
            at_cycle: 100,
            trace_len: 42,
        }));
        sink.on(&Event::AnalysisApplied(AnalysisApplied {
            opt_cycle: 0,
            handoff_at_cycle: 100,
            at_cycle: 180,
            lag_cycles: 80,
        }));
        sink.on(&Event::AnalysisStarved(AnalysisStarved {
            opt_cycle: 1,
            handoff_at_cycle: 300,
            at_cycle: 500,
            lag_cycles: 200,
        }));
        let records = lines(sink);
        assert_eq!(
            records[0].get("event"),
            Some(&Value::Str("analysis_handoff".into()))
        );
        assert_eq!(records[0].get("trace_len"), Some(&Value::U64(42)));
        assert_eq!(
            records[1].get("event"),
            Some(&Value::Str("analysis_applied".into()))
        );
        assert_eq!(records[1].get("lag_cycles"), Some(&Value::U64(80)));
        assert_eq!(
            records[2].get("event"),
            Some(&Value::Str("analysis_starved".into()))
        );
    }

    #[test]
    fn recovery_events_are_tagged() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.on(&Event::RecoverySnapshot(RecoverySnapshot {
            opt_cycle: 1,
            at_cycle: 4000,
            events_consumed: 81,
            bytes: 2048,
        }));
        sink.on(&Event::RecoveryReplay(RecoveryReplay {
            events_consumed: 90,
            rolled_forward: true,
        }));
        sink.on(&Event::RecoveryRestart(RecoveryRestart {
            attempt: 1,
            resumed_at_event: 81,
            backoff_cycles: 1000,
        }));
        sink.on(&Event::RecoveryGaveUp(RecoveryGaveUp {
            restarts: 4,
            crashes: 5,
        }));
        let records = lines(sink);
        assert_eq!(
            records[0].get("event"),
            Some(&Value::Str("recovery_snapshot".into()))
        );
        assert_eq!(records[0].get("bytes"), Some(&Value::U64(2048)));
        assert_eq!(
            records[1].get("event"),
            Some(&Value::Str("recovery_replay".into()))
        );
        assert_eq!(records[1].get("rolled_forward"), Some(&Value::Bool(true)));
        assert_eq!(
            records[2].get("event"),
            Some(&Value::Str("recovery_restart".into()))
        );
        assert_eq!(records[2].get("backoff_cycles"), Some(&Value::U64(1000)));
        assert_eq!(
            records[3].get("event"),
            Some(&Value::Str("recovery_gave_up".into()))
        );
        assert_eq!(records[3].get("restarts"), Some(&Value::U64(4)));
    }

    #[test]
    fn serve_events_are_tagged_with_stable_labels() {
        use crate::events::ServeBudgetKind;
        let mut sink = JsonlSink::new(Vec::new());
        sink.on(&Event::ServeSessionOpened(ServeSessionOpened {
            tenant: 0xbeef,
            shard: 2,
            backend: 1,
        }));
        sink.on(&Event::ServeShed(ServeShed {
            tenant: 0xbeef,
            shard: 2,
            kind: ServeBudgetKind::TenantQueue,
            budget: 4,
            observed: 5,
        }));
        let records = lines(sink);
        assert_eq!(
            records[0].get("event"),
            Some(&Value::Str("serve_session_opened".into()))
        );
        assert_eq!(records[0].get("shard"), Some(&Value::U64(2)));
        assert_eq!(
            records[1].get("event"),
            Some(&Value::Str("serve_shed".into()))
        );
        assert_eq!(
            records[1].get("kind"),
            Some(&Value::Str("tenant_queue".into()))
        );
        assert_eq!(records[1].get("observed"), Some(&Value::U64(5)));
    }

    #[test]
    fn write_errors_are_counted_not_fatal() {
        /// A writer that always fails.
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("broken"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Broken);
        sink.on(&Event::CycleStart(CycleStart::default()));
        assert_eq!(sink.records(), 0);
        assert_eq!(sink.write_errors(), 1);
    }
}
