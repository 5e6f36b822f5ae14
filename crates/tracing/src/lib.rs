//! The optimizer's flight recorder (`hds-flight`).
//!
//! `hds-core` and `hds-serve` emit hierarchical [`SpanEvent`]s —
//! profile/hibernate phases, the analysis and DFSM-build passes, image
//! edits, background-worker jobs, serve frames — as [`Event::Span`] on
//! the same zero-cost-when-off [`Observer`] stream as the rest of the
//! telemetry. This crate turns that stream into three artifacts:
//!
//! - [`FlightRecorder`]: a fixed-size ring buffer of recent spans and
//!   key discrete events, stamped with both the simulated clock (from
//!   the emitter, deterministic) and wall-clock nanoseconds (from the
//!   recorder, diagnostic only). On a crash, guard trip, or supervisor
//!   give-up it dumps the ring to `flightdump-*.json` — a black box
//!   for every chaos failure.
//! - [`perfetto`]: a Perfetto/chrome-trace JSON exporter over the
//!   recorded ring, plus the well-nestedness validator the proptests
//!   and `bench_trace` share.
//! - [`RunMeta`]: the provenance stamp (git revision, config
//!   fingerprint, timestamp, schema version) every
//!   `results/BENCH_*.json` writer embeds so numbers are comparable
//!   across commits.
//!
//! Recording charges zero simulated cycles: a run observed by a
//! [`FlightRecorder`] produces bit-identical reports, digests, and
//! cycle counts to the same run under `NullObserver` (`bench_trace`
//! enforces this).
//!
//! # Examples
//!
//! ```
//! use hds_flight::{Event, FlightRecorder, Observer, SpanEvent, SpanKind};
//!
//! let mut rec = FlightRecorder::new(1024);
//! rec.on(&Event::Span(SpanEvent::begin(SpanKind::Profile, 0)));
//! rec.on(&Event::Span(SpanEvent::end(SpanKind::Profile, 500)));
//! let records = rec.records();
//! assert_eq!(records.len(), 2);
//! assert_eq!(records[0].name, "profile");
//! hds_flight::perfetto::validate_nesting(&records).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod meta;
pub mod perfetto;
mod recorder;

pub use meta::{RunMeta, SCHEMA_VERSION};
pub use recorder::{DumpPolicy, FlightRecord, FlightRecorder};

// Convenience re-exports so embedders wiring a recorder need only this
// crate.
pub use hds_telemetry::events::{Event, SpanEvent, SpanKind, SpanPhase};
pub use hds_telemetry::Observer;
