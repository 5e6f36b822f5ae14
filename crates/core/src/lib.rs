//! The dynamic hot data stream prefetching optimizer — the paper's
//! primary contribution (Chilimbi & Hirzel, PLDI 2002).
//!
//! The optimizer runs a program through the three-phase cycle of
//! Figure 1:
//!
//! 1. **Profiling** — bursty tracing ([`hds_bursty`]) samples bursts of
//!    data references into a temporal profile, which Sequitur
//!    ([`hds_sequitur`]) compresses online;
//! 2. **Analysis and optimization** — the fast hot-data-stream analysis
//!    ([`hds_hotstream`]) extracts streams from the grammar, a
//!    prefix-matching DFSM ([`hds_dfsm`]) is built over them, and
//!    detection/prefetching code is injected into the running image
//!    ([`hds_vulcan`]);
//! 3. **Hibernation** — profiling is off; the program runs with the
//!    added prefetch instructions. At the end, the code is de-optimized
//!    and the cycle repeats.
//!
//! Execution, cache behaviour and timing come from [`hds_memsim`]; the
//! program itself is any `hds_workloads::Workload`-style event source.
//!
//! # Examples
//!
//! ```
//! use hds_core::{OptimizerConfig, PrefetchPolicy, SessionBuilder};
//! use hds_workloads::{SyntheticConfig, SyntheticWorkload, Workload};
//!
//! let make = || SyntheticWorkload::new(SyntheticConfig {
//!     total_refs: 60_000,
//!     ..SyntheticConfig::default()
//! });
//! let config = OptimizerConfig::test_scale();
//!
//! // Baseline: the unmodified program.
//! let mut w = make();
//! let procs = w.procedures();
//! let base = SessionBuilder::new(config.clone())
//!     .procedures(procs)
//!     .baseline()
//!     .run(&mut w);
//! // Full dynamic prefetching.
//! let mut w = make();
//! let procs = w.procedures();
//! let opt = SessionBuilder::new(config)
//!     .procedures(procs)
//!     .optimize(PrefetchPolicy::StreamTail)
//!     .run(&mut w);
//! assert!(opt.opt_cycles() >= 1);
//! // Reports are comparable: overhead_vs is negative when we sped up.
//! let _pct = opt.overhead_vs(&base);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod config;
mod executor;
mod pipeline;
mod report;
mod snapshot;

pub use builder::{NeedsMode, Ready, SessionBuilder};
pub use config::{
    AnalysisConcurrency, ConfigError, CycleStrategy, OptimizerConfig, PrefetchPolicy,
    PrefetchScheduling, RunMode,
};
pub use executor::{EventProblem, MalformedEvent, Session, MAX_THREADS};
pub use report::{CostBreakdown, CycleStats, RunReport, WorkerStats};
pub use snapshot::{config_fingerprint, Snapshot, SnapshotError};

// Prefetch backends: the pluggable `PrefetchBackend` trait and its
// implementations live in `hds_backend`; re-exported so embedders
// selecting `OptimizerConfig::backend` need only this crate.
pub use hds_backend::{
    self as backend, AnyBackend, BackendKind, BackendSelect, PanglossConfig, PrefetchBackend,
    TriangelConfig,
};

// Observability: the observer contract lives in `hds_telemetry`;
// re-exported here so embedders wiring a `Session` observer need only
// this crate.
pub use hds_telemetry::{self as telemetry, NullObserver, Observer};

// Robustness: budget guards, the accuracy-driven partial-deoptimization
// policy, and fault injection live in `hds_guard`; re-exported so
// embedders configuring `OptimizerConfig::guard` or running chaos
// sessions need only this crate.
pub use hds_guard::{
    self as guard, AccuracyConfig, CrashPoint, FaultInjector, FaultPlan, GuardConfig, GuardRuntime,
    NoFaults,
};
