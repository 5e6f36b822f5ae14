//! Observability for the hot-data-stream prefetching cycle.
//!
//! The optimizer (`hds-core`) emits a typed event at every interesting
//! boundary of the profile → analyze → optimize → hibernate loop:
//! phase transitions, cycle starts/ends, stream detection, DFSM
//! construction, prefetch issue, prefetch outcome, and de-optimization.
//! This crate defines those events ([`events`]), the one [`Event`]
//! stream that carries them, the [`Observer`] trait that receives it,
//! and two production observers:
//!
//! - [`MetricsRecorder`]: in-memory counters, log-scaled histograms, and
//!   per-stream prefetch accuracy / coverage / timeliness, renderable in
//!   Prometheus text exposition format.
//! - [`JsonlSink`]: one self-describing JSON record per event, for
//!   offline analysis.
//!
//! # Zero overhead when off
//!
//! [`NullObserver`] overrides nothing and sets [`Observer::ENABLED`] to
//! `false`. Instrumented code is generic over `O: Observer`, so the
//! `NullObserver` instantiation monomorphizes every emission site to
//! nothing, and `O::ENABLED` lets callers skip even the *construction*
//! of event payloads. The `observer_overhead` benchmark in `hds-bench`
//! verifies the paired claim end to end.
//!
//! # Examples
//!
//! ```
//! use hds_telemetry::{MetricsRecorder, Observer};
//! use hds_telemetry::events::{CycleEnd, Event, PrefetchFate, PrefetchOutcome};
//!
//! let mut metrics = MetricsRecorder::new();
//! metrics.on(&Event::PrefetchOutcome(PrefetchOutcome {
//!     stream_id: 0,
//!     block: 0x40,
//!     fate: PrefetchFate::Useful,
//!     issued_at_cycle: 100,
//!     resolved_at_cycle: 190,
//!     resolved_at_ref: 12,
//! }));
//! metrics.on(&Event::CycleEnd(CycleEnd { opt_cycle: 0, at_cycle: 200, ..CycleEnd::default() }));
//! let text = metrics.render_prometheus();
//! assert!(text.contains("hds_prefetch_outcomes_total{fate=\"useful\"} 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
mod jsonl;
mod metrics;

pub use jsonl::JsonlSink;
pub use metrics::{Histogram, MetricsRecorder, StreamMetrics};

use events::{Event, PhaseTransition, RecoverySnapshot, SpanEvent};

/// Receiver of the event stream.
///
/// An observer implements [`Observer::on`] as one `match` over the
/// [`Event`] kinds it cares about. Emission sites gate any work that
/// exists *only* to build an event behind [`Observer::ENABLED`]:
///
/// ```ignore
/// if O::ENABLED {
///     obs.on(&Event::StreamDetected(expensive_to_build_event()));
/// }
/// ```
pub trait Observer {
    /// Whether this observer consumes events at all. `false` only for
    /// [`NullObserver`] (and compositions of it): emission sites compile
    /// to nothing when this is `false`.
    const ENABLED: bool = true;

    /// Receives one event. The default hands three kinds to the
    /// provided methods below and drops the rest.
    fn on(&mut self, event: &Event) {
        match event {
            Event::PhaseTransition(e) => self.phase_transition(e),
            Event::RecoverySnapshot(e) => self.recovery_snapshot(e),
            Event::Span(e) => self.span(e),
            _ => {}
        }
    }

    /// [`Event::PhaseTransition`] for an observer that keeps the default
    /// [`Observer::on`]. Only that default calls this; it stays while
    /// the benchmark's `WallObserver` (`perfbench/src/probe.rs`)
    /// overrides it instead of `on`.
    fn phase_transition(&mut self, _event: &PhaseTransition) {}
    /// [`Event::RecoverySnapshot`], kept on the same terms as
    /// [`Observer::phase_transition`].
    fn recovery_snapshot(&mut self, _event: &RecoverySnapshot) {}
    /// [`Event::Span`], kept on the same terms as
    /// [`Observer::phase_transition`].
    fn span(&mut self, _event: &SpanEvent) {}
}

/// The do-nothing observer: [`Observer::ENABLED`] is `false`, so
/// instrumented code monomorphizes to exactly the uninstrumented code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    const ENABLED: bool = false;
}

/// Forwarding through a mutable reference, so an observer can stay
/// owned by the caller while a session borrows it.
impl<O: Observer> Observer for &mut O {
    const ENABLED: bool = O::ENABLED;

    fn on(&mut self, event: &Event) {
        (**self).on(event);
    }
}

/// Fan-out to two observers (nest pairs for more).
impl<A: Observer, B: Observer> Observer for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn on(&mut self, event: &Event) {
        self.0.on(event);
        self.1.on(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counting {
        seen: usize,
        spans: usize,
    }

    impl Observer for Counting {
        fn on(&mut self, event: &Event) {
            match event {
                Event::CycleEnd(_) => self.seen += 1,
                Event::Span(_) => self.spans += 1,
                _ => {}
            }
        }
    }

    #[test]
    fn null_observer_is_disabled() {
        const {
            assert!(!NullObserver::ENABLED);
            assert!(!<(NullObserver, NullObserver) as Observer>::ENABLED);
            assert!(Counting::ENABLED);
            assert!(<(NullObserver, Counting) as Observer>::ENABLED);
        }
    }

    #[test]
    fn pair_fans_out() {
        use events::{CycleEnd, SpanKind};
        let mut pair = (Counting::default(), Counting::default());
        pair.on(&Event::CycleEnd(CycleEnd::default()));
        pair.on(&Event::Span(SpanEvent::begin(SpanKind::Profile, 0)));
        assert_eq!(pair.0.seen, 1);
        assert_eq!(pair.1.seen, 1);
        assert_eq!(pair.0.spans, 1);
        assert_eq!(pair.1.spans, 1);
    }

    #[test]
    fn mut_ref_forwards() {
        let mut c = Counting::default();
        {
            let mut obs = &mut c;
            <&mut Counting as Observer>::on(&mut obs, &Event::CycleEnd(Default::default()));
        }
        assert_eq!(c.seen, 1);
        const { assert!(<&mut Counting as Observer>::ENABLED) };
    }
}
