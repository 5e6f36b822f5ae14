//! The unified entry point: [`SessionBuilder`], typestate run
//! construction over an [`OptimizerConfig`]. The builder takes its
//! configuration as given; [`OptimizerConfig::validate`] is the one
//! check for a configuration built from outside input.
//!
//! Historically the crate grew one entry point per capability — a
//! one-shot `Executor` plus matching `Session` constructors per
//! observer/fault combination — a combinatorial surface that doubled
//! with every new generic (all removed since 0.4). The builder
//! collapses them: observer and fault injector are optional
//! attachments with zero-overhead defaults ([`NullObserver`],
//! [`NoFaults`]), and the run mode is a *typestate* transition — a
//! builder without a mode has no `build()`/`run()` methods, so "forgot
//! to pick a mode" is a compile error, not a panic.
//!
//! ```
//! use hds_core::{OptimizerConfig, PrefetchPolicy, SessionBuilder};
//! use hds_workloads::{SyntheticConfig, SyntheticWorkload, Workload};
//!
//! let mut w = SyntheticWorkload::new(SyntheticConfig {
//!     total_refs: 50_000,
//!     ..SyntheticConfig::default()
//! });
//! let procs = w.procedures();
//! let report = SessionBuilder::new(OptimizerConfig::test_scale())
//!     .procedures(procs)
//!     .optimize(PrefetchPolicy::StreamTail)
//!     .run(&mut w);
//! assert!(report.refs > 0);
//! ```

use hds_backend::BackendSelect;
use hds_guard::{FaultInjector, NoFaults};
use hds_telemetry::{NullObserver, Observer};
use hds_vulcan::{Procedure, ProgramSource};

use crate::config::{OptimizerConfig, PrefetchPolicy, RunMode};
use crate::executor::Session;
use crate::report::RunReport;
use crate::snapshot::{Snapshot, SnapshotError};

// ---------------------------------------------------------------------------
// SessionBuilder
// ---------------------------------------------------------------------------

/// Typestate marker: no run mode selected yet. A
/// `SessionBuilder<NeedsMode, _, _>` has no `build()` or `run()` —
/// selecting a mode ([`SessionBuilder::mode`] or a named shortcut like
/// [`SessionBuilder::optimize`]) transitions to [`Ready`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NeedsMode;

/// Typestate marker: a run mode has been selected; the builder can now
/// [`SessionBuilder::build`] a [`Session`] or [`SessionBuilder::run`] a
/// program.
#[derive(Clone, Copy, Debug)]
pub struct Ready(RunMode);

/// Builds a [`Session`] (or drives a whole run): the single way to
/// start the optimizer.
///
/// Attachments default to the zero-overhead implementations — the
/// default-generic session (`Observer = NullObserver`,
/// `FaultInjector = NoFaults`) monomorphizes to exactly the
/// uninstrumented code. Attaching an observer or fault injector swaps
/// the type parameter, never adds a runtime branch.
///
/// # Typestate
///
/// The mode parameter `M` starts at [`NeedsMode`]; `build()`/`run()`
/// only exist on `SessionBuilder<Ready, _, _>`, so a mode must be
/// selected first — at compile time.
///
/// # Examples
///
/// Observed + faulted chaos run:
///
/// ```
/// use hds_core::{FaultPlan, OptimizerConfig, PrefetchPolicy, SessionBuilder};
/// use hds_telemetry::MetricsRecorder;
/// use hds_workloads::{SyntheticConfig, SyntheticWorkload, Workload};
///
/// let mut w = SyntheticWorkload::new(SyntheticConfig {
///     total_refs: 40_000,
///     ..SyntheticConfig::default()
/// });
/// let procs = w.procedures();
/// let mut rec = MetricsRecorder::new();
/// let mut plan = FaultPlan::from_seed(7);
/// let report = SessionBuilder::new(OptimizerConfig::test_scale())
///     .procedures(procs)
///     .observer(&mut rec)
///     .faults(&mut plan)
///     .optimize(PrefetchPolicy::StreamTail)
///     .run(&mut w);
/// assert_eq!(rec.cycles_completed(), report.cycles.len() as u64);
/// ```
#[derive(Debug)]
pub struct SessionBuilder<M = NeedsMode, O: Observer = NullObserver, F: FaultInjector = NoFaults> {
    config: OptimizerConfig,
    procedures: Vec<Procedure>,
    state: M,
    obs: O,
    faults: F,
    checkpoints: bool,
}

impl SessionBuilder {
    /// Starts a builder from an [`OptimizerConfig`] with no procedures,
    /// no observer, no faults, and no checkpointing.
    #[must_use]
    pub fn new(config: OptimizerConfig) -> Self {
        SessionBuilder {
            config,
            procedures: Vec::new(),
            state: NeedsMode,
            obs: NullObserver,
            faults: NoFaults,
            checkpoints: false,
        }
    }
}

impl<M, O: Observer, F: FaultInjector> SessionBuilder<M, O, F> {
    /// Sets the static program image (needed for code injection and the
    /// Table 2 "procedures modified" statistic). Pass the workload's
    /// `procedures()`; defaults to an empty image.
    #[must_use]
    pub fn procedures(mut self, procedures: Vec<Procedure>) -> Self {
        self.procedures = procedures;
        self
    }

    /// Attaches an observer receiving every telemetry event of the run.
    /// Pass `&mut recorder` to keep access to it after the run.
    #[must_use]
    pub fn observer<O2: Observer>(self, obs: O2) -> SessionBuilder<M, O2, F> {
        SessionBuilder {
            config: self.config,
            procedures: self.procedures,
            state: self.state,
            obs,
            faults: self.faults,
            checkpoints: self.checkpoints,
        }
    }

    /// Attaches a fault injector (the chaos-testing entry point). Pass
    /// `&mut plan` to read an `hds_guard::FaultPlan`'s counts after the
    /// run.
    #[must_use]
    pub fn faults<F2: FaultInjector>(self, faults: F2) -> SessionBuilder<M, O, F2> {
        SessionBuilder {
            config: self.config,
            procedures: self.procedures,
            state: self.state,
            obs: self.obs,
            faults,
            checkpoints: self.checkpoints,
        }
    }

    /// Turns on crash-consistent checkpointing: every phase boundary
    /// captures a versioned, checksummed [`Snapshot`] of the full
    /// optimizer state, retrievable with [`Session::latest_snapshot`]
    /// and resumable with [`SessionBuilder::resume`].
    #[must_use]
    pub fn checkpoints(mut self) -> Self {
        self.checkpoints = true;
        self
    }

    /// Selects the prefetch backend for optimize-mode runs
    /// (`OptimizerConfig::backend`). The default,
    /// [`BackendSelect::DynPref`], is the paper's grammar → DFSM path;
    /// the alternatives run an online table-driven predictor instead.
    /// Geometry is checked by [`OptimizerConfig::validate`]; this
    /// setter trusts its input like the rest of the builder.
    #[must_use]
    pub fn backend(mut self, backend: BackendSelect) -> Self {
        self.config.backend = backend;
        self
    }
}

impl<O: Observer, F: FaultInjector> SessionBuilder<NeedsMode, O, F> {
    /// Selects the run mode, unlocking [`SessionBuilder::build`] and
    /// [`SessionBuilder::run`].
    #[must_use]
    pub fn mode(self, mode: RunMode) -> SessionBuilder<Ready, O, F> {
        SessionBuilder {
            config: self.config,
            procedures: self.procedures,
            state: Ready(mode),
            obs: self.obs,
            faults: self.faults,
            checkpoints: self.checkpoints,
        }
    }

    /// The unmodified program ([`RunMode::Baseline`]).
    #[must_use]
    pub fn baseline(self) -> SessionBuilder<Ready, O, F> {
        self.mode(RunMode::Baseline)
    }

    /// Only the dynamic checks ([`RunMode::ChecksOnly`], Figure 11
    /// *Base*).
    #[must_use]
    pub fn checks_only(self) -> SessionBuilder<Ready, O, F> {
        self.mode(RunMode::ChecksOnly)
    }

    /// Checks + profiling ([`RunMode::Profile`], Figure 11 *Prof*).
    #[must_use]
    pub fn profile(self) -> SessionBuilder<Ready, O, F> {
        self.mode(RunMode::Profile)
    }

    /// Checks + profiling + analysis ([`RunMode::Analyze`], Figure 11
    /// *Hds*).
    #[must_use]
    pub fn analyze(self) -> SessionBuilder<Ready, O, F> {
        self.mode(RunMode::Analyze)
    }

    /// The full cycle with the given prefetch policy
    /// ([`RunMode::Optimize`], Figure 12's bars).
    #[must_use]
    pub fn optimize(self, policy: PrefetchPolicy) -> SessionBuilder<Ready, O, F> {
        self.mode(RunMode::Optimize(policy))
    }
}

impl<O: Observer, F: FaultInjector> SessionBuilder<Ready, O, F> {
    /// The selected run mode.
    #[must_use]
    pub fn selected_mode(&self) -> RunMode {
        self.state.0
    }

    /// Builds the streaming [`Session`]. Embedders producing events
    /// from a live system feed it with [`Session::on_event`] and close
    /// with [`Session::finish`].
    #[must_use]
    pub fn build(self) -> Session<O, F> {
        let checkpoints = self.checkpoints;
        let mut session = Session::construct(
            self.config,
            self.state.0,
            self.procedures,
            self.obs,
            self.faults,
        );
        if checkpoints {
            session.enable_checkpoints();
        }
        session
    }

    /// Reconstructs a session from a phase-boundary [`Snapshot`]
    /// instead of starting fresh — the crash-recovery entry point. The
    /// builder's config, mode, and procedures must match the capturing
    /// run's; any attached observer/faults carry over. See
    /// [`Session::resume_from`].
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: corruption, a foreign format, or a
    /// snapshot captured under a different configuration.
    pub fn resume(self, snapshot: &Snapshot) -> Result<Session<O, F>, SnapshotError> {
        Session::resume_from(
            self.config,
            self.state.0,
            self.procedures,
            snapshot,
            self.obs,
            self.faults,
        )
    }

    /// Runs `program` to completion and returns its report — the
    /// one-shot driver over [`SessionBuilder::build`]. An injected
    /// crash ends the loop early (the session is dead); supervised
    /// recovery lives in `hds-engine`.
    pub fn run<W>(self, program: &mut W) -> RunReport
    where
        W: ProgramSource + ?Sized,
    {
        let mut session = self.build();
        while let Some(event) = program.next_event() {
            session.on_event(event);
            if session.crashed() {
                break;
            }
        }
        session.finish(program.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigError, PrefetchScheduling};
    use hds_bursty::BurstyConfig;
    use hds_guard::FaultPlan;
    use hds_telemetry::MetricsRecorder;
    use hds_workloads::{SyntheticConfig, SyntheticWorkload, Workload};

    fn workload() -> SyntheticWorkload {
        SyntheticWorkload::new(SyntheticConfig {
            total_refs: 60_000,
            ..SyntheticConfig::default()
        })
    }

    #[test]
    fn builder_run_matches_manual_session_loop() {
        let mut w = workload();
        let procs = w.procedures();
        let one_shot = SessionBuilder::new(OptimizerConfig::test_scale())
            .procedures(procs)
            .optimize(PrefetchPolicy::StreamTail)
            .run(&mut w);
        let mut w = workload();
        let procs = w.procedures();
        let mut session = SessionBuilder::new(OptimizerConfig::test_scale())
            .procedures(procs)
            .optimize(PrefetchPolicy::StreamTail)
            .build();
        while let Some(event) = w.next_event() {
            session.on_event(event);
            if session.crashed() {
                break;
            }
        }
        let streamed = session.finish(w.name());
        assert_eq!(one_shot, streamed);
    }

    #[test]
    fn builder_attaches_observer_and_faults() {
        let mut w = workload();
        let procs = w.procedures();
        let mut rec = MetricsRecorder::new();
        let mut plan = FaultPlan::from_seed(3);
        let report = SessionBuilder::new(OptimizerConfig::test_scale())
            .procedures(procs)
            .observer(&mut rec)
            .faults(&mut plan)
            .optimize(PrefetchPolicy::StreamTail)
            .run(&mut w);
        assert_eq!(rec.cycles_completed(), report.cycles.len() as u64);
    }

    #[test]
    fn mode_shortcuts_select_the_right_modes() {
        let b = || SessionBuilder::new(OptimizerConfig::test_scale());
        assert_eq!(b().baseline().selected_mode(), RunMode::Baseline);
        assert_eq!(b().checks_only().selected_mode(), RunMode::ChecksOnly);
        assert_eq!(b().profile().selected_mode(), RunMode::Profile);
        assert_eq!(b().analyze().selected_mode(), RunMode::Analyze);
        assert_eq!(
            b().optimize(PrefetchPolicy::None).selected_mode(),
            RunMode::Optimize(PrefetchPolicy::None)
        );
    }

    #[test]
    fn build_yields_a_streaming_session() {
        let mut session = SessionBuilder::new(OptimizerConfig::test_scale())
            .optimize(PrefetchPolicy::StreamTail)
            .build();
        session.on_event(hds_vulcan::Event::Work(3));
        let report = session.finish("streaming");
        assert_eq!(report.refs, 0);
        assert!(report.total_cycles > 0);
    }

    #[test]
    fn engine_config_validates_zero_counters() {
        let mut config = OptimizerConfig::paper_scale();
        config.bursty.n_check0 = 0;
        assert_eq!(
            config.validate(),
            Err(ConfigError::ZeroBurstCounter { field: "nCheck0" })
        );
        config.bursty = BurstyConfig {
            n_check0: 240,
            n_instr0: 40,
            n_awake0: 4,
            n_hibernate0: 0,
        };
        assert_eq!(
            config.validate(),
            Err(ConfigError::ZeroBurstCounter {
                field: "nHibernate0"
            })
        );
    }

    #[test]
    fn engine_config_rejects_inverted_duty_cycle() {
        let mut config = OptimizerConfig::paper_scale();
        config.bursty = BurstyConfig::new(240, 40, 8, 4);
        let err = config.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::HibernationShorterThanAwake {
                awake: 8,
                hibernate: 4
            }
        );
        assert!(err.to_string().contains("duty cycle is inverted"));
    }

    #[test]
    fn engine_config_rejects_bad_heat_and_bounds() {
        fn rejects(mut config: OptimizerConfig, edit: fn(&mut OptimizerConfig)) -> ConfigError {
            edit(&mut config);
            config.validate().unwrap_err()
        }
        let (paper, test) = (
            OptimizerConfig::paper_scale(),
            OptimizerConfig::test_scale(),
        );
        assert_eq!(
            rejects(paper.clone(), |c| c.heat_percent = 0.0),
            ConfigError::HeatPercentOutOfRange(0.0)
        );
        assert_eq!(
            rejects(paper.clone(), |c| c.heat_percent = 250.0),
            ConfigError::HeatPercentOutOfRange(250.0)
        );
        assert_eq!(
            rejects(test.clone(), |c| c.analysis.min_length = 200),
            ConfigError::StreamLengthBoundsInverted { min: 200, max: 100 }
        );
        assert_eq!(
            rejects(test, |c| c.dfsm.head_len = 0),
            ConfigError::ZeroHeadLen
        );
        assert_eq!(
            rejects(paper.clone(), |c| c.max_streams = 0),
            ConfigError::ZeroMaxStreams
        );
        assert_eq!(
            rejects(paper, |c| c.scheduling =
                PrefetchScheduling::Windowed { degree: 0 }),
            ConfigError::ZeroWindowedDegree
        );
    }

    #[test]
    fn engine_config_validates_backend_geometry() {
        use hds_backend::{PanglossConfig, TriangelConfig};
        let with_backend = |backend| {
            let mut config = OptimizerConfig::paper_scale();
            config.backend = backend;
            config.validate()
        };
        let err = with_backend(BackendSelect::Pangloss(PanglossConfig {
            rows: 100,
            ..PanglossConfig::default()
        }))
        .unwrap_err();
        assert_eq!(
            err,
            ConfigError::BadBackendGeometry {
                backend: "Pangloss",
                field: "rows",
                value: 100
            }
        );
        assert!(err.to_string().contains("power of two"));
        assert_eq!(
            with_backend(BackendSelect::Pangloss(PanglossConfig {
                degree: 0,
                ..PanglossConfig::default()
            })),
            Err(ConfigError::ZeroBackendDegree {
                backend: "Pangloss"
            })
        );
        assert_eq!(
            with_backend(BackendSelect::Triangel(TriangelConfig {
                table_rows: 0,
                ..TriangelConfig::default()
            })),
            Err(ConfigError::BadBackendGeometry {
                backend: "Triangel",
                field: "table_rows",
                value: 0
            })
        );
        // Defaults for every backend pass.
        for kind in hds_backend::BackendKind::ALL {
            assert_eq!(with_backend(BackendSelect::default_for(kind)), Ok(()));
        }
    }

    #[test]
    fn session_builder_backend_setter_threads_through() {
        use hds_backend::PanglossConfig;
        let select = BackendSelect::Pangloss(PanglossConfig::default());
        let session = SessionBuilder::new(OptimizerConfig::test_scale())
            .backend(select)
            .optimize(PrefetchPolicy::StreamTail)
            .build();
        let report = session.finish("backend");
        assert_eq!(report.mode, "Pangloss");
    }

    #[test]
    fn valid_paper_scale_passes() {
        assert_eq!(OptimizerConfig::paper_scale().validate(), Ok(()));
        assert_eq!(OptimizerConfig::test_scale().validate(), Ok(()));
    }
}
