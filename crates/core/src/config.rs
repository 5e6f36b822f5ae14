//! Optimizer configuration: run modes, prefetch policies, and the knobs
//! of every subsystem in one place.

use std::fmt;

use hds_backend::BackendSelect;
use hds_bursty::BurstyConfig;
use hds_dfsm::DfsmConfig;
use hds_guard::GuardConfig;
use hds_hotstream::AnalysisConfig;
use hds_memsim::HierarchyConfig;

/// What to prefetch when a hot data stream's head matches — the three
/// prefetching bars of the paper's Figure 12.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrefetchPolicy {
    /// Match prefixes but never issue prefetches — Figure 12's *No-pref*:
    /// "the cost of performing all the profiling, analysis and hot data
    /// stream prefix matching, yet not inserting prefetches".
    None,
    /// On a match, prefetch the cache blocks that *sequentially follow*
    /// the matched reference — Figure 12's *Seq-pref*, "equivalent to our
    /// dynamic prefetching scheme if hot data streams are sequentially
    /// allocated".
    SequentialBlocks,
    /// On a match, prefetch the remaining stream addresses (the tail) —
    /// Figure 12's *Dyn-pref*, the paper's scheme.
    StreamTail,
}

impl PrefetchPolicy {
    /// The label used in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PrefetchPolicy::None => "No-pref",
            PrefetchPolicy::SequentialBlocks => "Seq-pref",
            PrefetchPolicy::StreamTail => "Dyn-pref",
        }
    }
}

/// When to issue the prefetches of a matched stream's tail.
///
/// The paper's implementation "makes no attempt to schedule prefetches
/// (they are triggered as soon as the prefix matches). More intelligent
/// prefetch scheduling could produce larger benefits" (§4.3) — this is
/// that future-work extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrefetchScheduling {
    /// Issue every tail prefetch immediately at the match (the paper's
    /// implementation).
    AllAtOnce,
    /// Issue at most `degree` queued prefetches per subsequent data
    /// reference, so fetches arrive closer to their uses (less pollution,
    /// possibly more late arrivals).
    Windowed {
        /// Prefetches issued per subsequent reference.
        degree: usize,
    },
}

/// Whether the optimizer keeps re-profiling (the paper's scheme) or
/// optimizes once and leaves the code in place.
///
/// The paper notes hot data streams "have been shown to be fairly stable
/// across program inputs and could serve as the basis for an off-line
/// static prefetching scheme \[10\]. On the other hand, for programs with
/// distinct phase behavior, a dynamic prefetching scheme that adapts …
/// may perform better" and leaves the comparison to future work (§1) —
/// this switch makes the comparison runnable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CycleStrategy {
    /// Profile → optimize → hibernate → de-optimize, repeatedly (the
    /// paper's scheme).
    Dynamic,
    /// Profile once, optimize once, and keep the injected code for the
    /// rest of the run (no re-profiling, no de-optimization).
    Static,
}

/// Where the analyze phase (Sequitur → hot-stream detection → DFSM
/// construction) runs relative to the simulated program.
///
/// The paper runs analysis on the critical path: "the profiling phase
/// is followed by an analysis and optimization phase" that the program
/// waits out. [`AnalysisConcurrency::Background`] moves it onto a
/// worker thread: the program keeps executing hibernation references
/// while the analysis runs, and the result is installed at a
/// deterministic ready point in simulated time (see
/// `crates/core/src/pipeline.rs` and DESIGN.md §9). Runs stay
/// bit-identical across hosts and thread schedules.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AnalysisConcurrency {
    /// Analyze at the end of each awake phase, on the critical path
    /// (the paper's implementation): per-reference grammar maintenance
    /// is charged during profiling and the final pass at phase end.
    #[default]
    Inline,
    /// Analyze on a background worker with a double-buffered trace
    /// handoff over a bounded channel. The critical path pays only
    /// recording; if the hibernation span ends (or the worker-lag
    /// guard trips) before the ready point, the result is discarded —
    /// *analysis starvation* — and the cycle completes unoptimized.
    Background,
}

/// How much of the machinery to run — the bars of Figures 11 and 12.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RunMode {
    /// The original, unmodified program (the normalisation baseline).
    Baseline,
    /// Only the dynamic checks execute — Figure 11's *Base* bar
    /// ("measured by setting `nCheck0` to an extremely large value").
    ChecksOnly,
    /// Checks + temporal data-reference profiling — Figure 11's *Prof*.
    Profile,
    /// Checks + profiling + online Sequitur + hot-data-stream analysis —
    /// Figure 11's *Hds*.
    Analyze,
    /// The full cycle including DFSM injection, with the given prefetch
    /// policy — Figure 12's bars.
    Optimize(PrefetchPolicy),
}

impl RunMode {
    /// Does this mode record data references while awake?
    #[must_use]
    pub fn records(self) -> bool {
        !matches!(self, RunMode::Baseline | RunMode::ChecksOnly)
    }

    /// Does this mode run Sequitur + the hot-stream analysis?
    #[must_use]
    pub fn analyzes(self) -> bool {
        matches!(self, RunMode::Analyze | RunMode::Optimize(_))
    }

    /// Does this mode inject prefix-matching code?
    #[must_use]
    pub fn optimizes(self) -> Option<PrefetchPolicy> {
        match self {
            RunMode::Optimize(p) => Some(p),
            _ => None,
        }
    }
}

/// All the knobs of the optimizer in one place.
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// Bursty-tracing counters.
    pub bursty: BurstyConfig,
    /// Hot-data-stream thresholds. The heat threshold is re-derived per
    /// cycle as `heat_percent` of the traced references; `min_length`,
    /// `max_length` and `min_unique_refs` are used as given.
    pub analysis: AnalysisConfig,
    /// Heat threshold as a percentage of each cycle's traced references
    /// (the paper: streams must "account for at least 1% of the collected
    /// trace").
    pub heat_percent: f64,
    /// DFSM construction (`headLen`, state bound).
    pub dfsm: DfsmConfig,
    /// Cache geometry and cycle costs.
    pub hierarchy: HierarchyConfig,
    /// Upper bound on streams handed to the DFSM per cycle (hottest
    /// first); guards against pathological analyses.
    pub max_streams: usize,
    /// Prefetch degree for [`PrefetchPolicy::SequentialBlocks`] is the
    /// matched stream's tail length capped at this value.
    pub seq_pref_cap: usize,
    /// When tail prefetches are issued (§4.3 future work).
    pub scheduling: PrefetchScheduling,
    /// Dynamic (re-profiling) or static (optimize-once) operation (§1
    /// future work).
    pub strategy: CycleStrategy,
    /// Whether the analyze phase runs inline (the paper) or on a
    /// background worker, off the critical path.
    pub concurrency: AnalysisConcurrency,
    /// Budget guards and the accuracy-driven partial-deoptimization
    /// policy. Disabled by default: with every guard off the layer is
    /// behaviorally inert and reported cycle costs are identical to a
    /// build without it.
    pub guard: GuardConfig,
    /// Which prefetch backend drives `RunMode::Optimize` sessions. The
    /// default, [`BackendSelect::DynPref`], is the paper's grammar →
    /// DFSM path and leaves every existing code path untouched; the
    /// alternative backends (Pangloss, Triangel) replace profiling +
    /// analysis + matching with an online table-driven predictor (see
    /// DESIGN.md §14).
    pub backend: BackendSelect,
}

impl OptimizerConfig {
    /// The paper's experiment configuration (§4.1), at simulation scale:
    /// `nInstr0 = 60`-check bursts, awake/hibernate phasing, streams of
    /// more than 10 unique references accounting for ≥ 1% of the trace,
    /// `headLen = 2`. The bursty counters are scaled (2% burst sampling,
    /// awake 25 of every 100 burst-periods) so that runs of a few million
    /// references complete several optimization cycles; EXPERIMENTS.md
    /// records the scaling.
    #[must_use]
    pub fn paper_scale() -> Self {
        OptimizerConfig {
            bursty: BurstyConfig::new(1_350, 150, 8, 40),
            analysis: AnalysisConfig {
                heat_threshold: 1, // re-derived per cycle
                min_length: 10,
                max_length: 100,
                min_unique_refs: 10,
                chop_long_rules: false,
            },
            heat_percent: 1.0,
            dfsm: DfsmConfig::new(2),
            hierarchy: HierarchyConfig::pentium_iii(),
            max_streams: 64,
            seq_pref_cap: 12,
            scheduling: PrefetchScheduling::AllAtOnce,
            strategy: CycleStrategy::Dynamic,
            concurrency: AnalysisConcurrency::Inline,
            guard: GuardConfig::disabled(),
            backend: BackendSelect::DynPref,
        }
    }

    /// A small configuration for unit and integration tests: short
    /// bursts, quick cycles, permissive stream thresholds.
    #[must_use]
    pub fn test_scale() -> Self {
        OptimizerConfig {
            bursty: BurstyConfig::new(240, 40, 4, 8),
            analysis: AnalysisConfig {
                heat_threshold: 1,
                min_length: 5,
                max_length: 100,
                min_unique_refs: 4,
                chop_long_rules: false,
            },
            heat_percent: 1.0,
            dfsm: DfsmConfig::new(2),
            hierarchy: HierarchyConfig::pentium_iii(),
            max_streams: 64,
            seq_pref_cap: 16,
            scheduling: PrefetchScheduling::AllAtOnce,
            strategy: CycleStrategy::Dynamic,
            concurrency: AnalysisConcurrency::Inline,
            guard: GuardConfig::disabled(),
            backend: BackendSelect::DynPref,
        }
    }

    /// Checks every cross-field invariant the runtime relies on, so a
    /// configuration built from outside input fails with a typed
    /// [`ConfigError`] instead of a panic deep in a session.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found; checks run in a fixed order
    /// (bursty counters, duty cycle, heat, stream bounds, DFSM, stream
    /// cap, scheduling, backend geometry).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let b = self.bursty;
        for (value, field) in [
            (b.n_check0, "nCheck0"),
            (b.n_instr0, "nInstr0"),
            (b.n_awake0, "nAwake0"),
            (b.n_hibernate0, "nHibernate0"),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroBurstCounter { field });
            }
        }
        if b.n_hibernate0 < b.n_awake0 {
            return Err(ConfigError::HibernationShorterThanAwake {
                awake: b.n_awake0,
                hibernate: b.n_hibernate0,
            });
        }
        if !(self.heat_percent > 0.0 && self.heat_percent <= 100.0) {
            return Err(ConfigError::HeatPercentOutOfRange(self.heat_percent));
        }
        if self.analysis.min_length > self.analysis.max_length {
            return Err(ConfigError::StreamLengthBoundsInverted {
                min: self.analysis.min_length,
                max: self.analysis.max_length,
            });
        }
        if self.dfsm.head_len == 0 {
            return Err(ConfigError::ZeroHeadLen);
        }
        if self.max_streams == 0 {
            return Err(ConfigError::ZeroMaxStreams);
        }
        if let PrefetchScheduling::Windowed { degree: 0 } = self.scheduling {
            return Err(ConfigError::ZeroWindowedDegree);
        }
        validate_backend(&self.backend)
    }
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig::paper_scale()
    }
}

/// A configuration rejected by [`OptimizerConfig::validate`].
///
/// Every variant is a setting combination the runtime would otherwise
/// only surface as a panic (e.g. `BurstyConfig::new` asserts) or as
/// silent degeneracy (a duty cycle that never hibernates long enough to
/// analyze).
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A bursty-tracing counter is zero; the framework degenerates
    /// (`BurstyConfig::new` would panic).
    ZeroBurstCounter {
        /// Which counter (`nCheck0`, `nInstr0`, `nAwake0`,
        /// `nHibernate0`).
        field: &'static str,
    },
    /// The hibernation phase is shorter than the awake phase — the duty
    /// cycle is inverted: profiling dominates and (in background mode)
    /// analysis has no hibernation span to overlap with.
    HibernationShorterThanAwake {
        /// `nAwake0` burst-periods.
        awake: u64,
        /// `nHibernate0` burst-periods.
        hibernate: u64,
    },
    /// `heat_percent` outside `(0, 100]`.
    HeatPercentOutOfRange(
        /// The rejected value.
        f64,
    ),
    /// `analysis.min_length > analysis.max_length`: no stream can ever
    /// qualify.
    StreamLengthBoundsInverted {
        /// Minimum qualifying stream length.
        min: u64,
        /// Maximum qualifying stream length.
        max: u64,
    },
    /// `dfsm.head_len == 0`: the matcher would match everything
    /// unconditionally.
    ZeroHeadLen,
    /// `max_streams == 0`: every cycle would optimize nothing.
    ZeroMaxStreams,
    /// `PrefetchScheduling::Windowed { degree: 0 }`: queued prefetches
    /// would never issue.
    ZeroWindowedDegree,
    /// An online backend's prefetch degree is zero: it would train but
    /// never predict.
    ZeroBackendDegree {
        /// The offending backend's label.
        backend: &'static str,
    },
    /// An online backend's table geometry is unusable: a row count that
    /// is zero or not a power of two (the row index is a hash mask), or
    /// a zero associativity. The backend constructors would panic on
    /// these; `validate` reports them instead.
    BadBackendGeometry {
        /// The offending backend's label.
        backend: &'static str,
        /// Which geometry field (`rows`, `assoc`, `train_rows`,
        /// `table_rows`).
        field: &'static str,
        /// The rejected value.
        value: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroBurstCounter { field } => {
                write!(f, "bursty counter {field} must be nonzero")
            }
            ConfigError::HibernationShorterThanAwake { awake, hibernate } => write!(
                f,
                "hibernation ({hibernate} burst-periods) is shorter than the awake phase \
                 ({awake} burst-periods); the duty cycle is inverted"
            ),
            ConfigError::HeatPercentOutOfRange(v) => {
                write!(f, "heat_percent must be in (0, 100], got {v}")
            }
            ConfigError::StreamLengthBoundsInverted { min, max } => write!(
                f,
                "analysis.min_length ({min}) exceeds max_length ({max}); no stream can qualify"
            ),
            ConfigError::ZeroHeadLen => write!(f, "dfsm.head_len must be at least 1"),
            ConfigError::ZeroMaxStreams => write!(f, "max_streams must be at least 1"),
            ConfigError::ZeroWindowedDegree => {
                write!(f, "windowed prefetch scheduling needs degree >= 1")
            }
            ConfigError::ZeroBackendDegree { backend } => {
                write!(f, "{backend} backend needs degree >= 1")
            }
            ConfigError::BadBackendGeometry {
                backend,
                field,
                value,
            } => write!(
                f,
                "{backend} backend {field} must be a nonzero power of two, got {value}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Checks an online backend's table geometry: row counts must be
/// nonzero powers of two (row selection is a hash mask), associativity
/// and prefetch degree must be nonzero.
fn validate_backend(backend: &BackendSelect) -> Result<(), ConfigError> {
    fn pow2(backend: &'static str, field: &'static str, value: u32) -> Result<(), ConfigError> {
        if value == 0 || !value.is_power_of_two() {
            return Err(ConfigError::BadBackendGeometry {
                backend,
                field,
                value,
            });
        }
        Ok(())
    }
    match backend {
        BackendSelect::DynPref => Ok(()),
        BackendSelect::Pangloss(c) => {
            let label = "Pangloss";
            pow2(label, "rows", c.rows)?;
            if c.assoc == 0 {
                return Err(ConfigError::BadBackendGeometry {
                    backend: label,
                    field: "assoc",
                    value: 0,
                });
            }
            if c.degree == 0 {
                return Err(ConfigError::ZeroBackendDegree { backend: label });
            }
            Ok(())
        }
        BackendSelect::Triangel(c) => {
            let label = "Triangel";
            pow2(label, "train_rows", c.train_rows)?;
            pow2(label, "table_rows", c.table_rows)?;
            if c.degree == 0 {
                return Err(ConfigError::ZeroBackendDegree { backend: label });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(!RunMode::Baseline.records());
        assert!(!RunMode::ChecksOnly.records());
        assert!(RunMode::Profile.records());
        assert!(!RunMode::Profile.analyzes());
        assert!(RunMode::Analyze.analyzes());
        assert_eq!(RunMode::Analyze.optimizes(), None);
        assert_eq!(
            RunMode::Optimize(PrefetchPolicy::StreamTail).optimizes(),
            Some(PrefetchPolicy::StreamTail)
        );
    }

    #[test]
    fn policy_labels_match_figure12() {
        assert_eq!(PrefetchPolicy::None.label(), "No-pref");
        assert_eq!(PrefetchPolicy::SequentialBlocks.label(), "Seq-pref");
        assert_eq!(PrefetchPolicy::StreamTail.label(), "Dyn-pref");
    }

    #[test]
    fn paper_scale_matches_paper_settings() {
        let c = OptimizerConfig::paper_scale();
        assert_eq!(c.bursty.burst_period(), 1_500); // ~1500-ref bursts, as in §4.1
        assert_eq!(c.dfsm.head_len, 2); // headLen = 2 (§4.3)
        assert_eq!(c.analysis.min_length, 10); // >10 refs (§4.1)
        assert!((c.heat_percent - 1.0).abs() < f64::EPSILON); // 1% of trace
    }
}
