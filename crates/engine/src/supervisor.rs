//! Supervised session restart: runs a checkpointed session over a
//! replayable event vector and, when an injected crash kills it,
//! restarts from the last phase-boundary snapshot under a
//! capped-exponential backoff with a max-restarts circuit breaker.
//!
//! The recovery loop per attempt:
//!
//! 1. run the session until the workload is drained or
//!    [`hds_core::Session::crashed`] flips;
//! 2. on a crash, roll the write-ahead edit journal forward
//!    ([`hds_core::Session::crash_recover`]) so the dead segment's image
//!    is consistent, and take its last snapshot;
//! 3. if the restart cap is exhausted, open the circuit breaker (emit
//!    `RecoveryGaveUp`, return with no report); otherwise charge the
//!    modeled backoff, resume from the snapshot (or restart from
//!    scratch with the in-simulation fault stream rewound when no
//!    boundary was ever reached), and skip the events the snapshot
//!    already consumed.
//!
//! Backoff is *modeled*, not slept: the supervisor accumulates
//! simulated cycles in [`SupervisedOutcome::backoff_total`] so chaos
//! schedules stay deterministic and fast. Crash draws come from the
//! fault plan's independent crash stream, which persists across
//! restarts (see [`hds_guard::FaultPlan::crashy`]), so a restarted
//! lineage makes fresh kill decisions while its in-simulation faults
//! replay bit-identically.

use hds_core::{
    FaultInjector, Observer, OptimizerConfig, RunMode, RunReport, SessionBuilder, Snapshot,
};
use hds_telemetry::events as tev;
use hds_vulcan::{Event, Procedure};

/// Restart policy for [`supervise`]: capped exponential backoff plus a
/// circuit breaker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Modeled backoff before the first restart, in simulated cycles.
    pub backoff_base: u64,
    /// Ceiling on the per-restart backoff (the "capped" in
    /// capped-exponential).
    pub backoff_cap: u64,
    /// Restarts allowed before the circuit breaker opens and the run is
    /// abandoned.
    pub max_restarts: u32,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            backoff_base: 1_000,
            backoff_cap: 64_000,
            max_restarts: 8,
        }
    }
}

impl SupervisorPolicy {
    /// The modeled backoff charged before restart number `attempt`
    /// (1-based): `min(base << (attempt - 1), cap)`, saturating instead
    /// of overflowing for large attempt numbers.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> u64 {
        self.backoff_base
            .checked_shl(attempt.saturating_sub(1))
            .unwrap_or(u64::MAX)
            .min(self.backoff_cap)
    }
}

/// What a supervised run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct SupervisedOutcome {
    /// The final report — `None` when the circuit breaker opened. A
    /// recovered run's report is bit-identical to the uninterrupted
    /// run's except for [`RunReport::restarts`].
    pub report: Option<RunReport>,
    /// Restarts performed (0 for a crash-free run).
    pub restarts: u32,
    /// Whether the circuit breaker opened ([`SupervisedOutcome::report`]
    /// is `None` exactly when set).
    pub gave_up: bool,
    /// Digest of the final edited image (`None` when the breaker
    /// opened) — the bit-identity witness the chaos-crash suite
    /// compares against the uninterrupted run's.
    pub image_digest: Option<u64>,
    /// Total modeled backoff charged across all restarts, in simulated
    /// cycles.
    pub backoff_total: u64,
}

/// Runs `events` through a checkpointed session under `config`/`mode`,
/// restarting from the last snapshot whenever an injected crash kills
/// the session, until the run completes or `policy.max_restarts` is
/// exhausted.
///
/// The observer sees one continuous telemetry story: the crashed
/// segments' events, a `RecoveryReplay` per crash, a `RecoveryRestart`
/// per restart (reconciling with the final report's `restarts`), and a
/// `RecoveryGaveUp` if the breaker opens. Crash-free supervised runs
/// are bit-identical to plain checkpointed runs.
#[allow(clippy::too_many_arguments)]
pub fn supervise<O: Observer, F: FaultInjector>(
    config: &OptimizerConfig,
    mode: RunMode,
    procedures: &[Procedure],
    events: &[Event],
    name: &str,
    policy: SupervisorPolicy,
    obs: &mut O,
    faults: &mut F,
) -> SupervisedOutcome {
    // The in-simulation fault stream at entry: a restart from scratch
    // (a crash before the first boundary) rewinds to it so the replayed
    // prefix draws identical faults. The crash stream is untouched.
    let fresh_fault_state = faults.snapshot_state();
    let mut latest: Option<Snapshot> = None;
    let mut restarts: u32 = 0;
    let mut crashes: u64 = 0;
    let mut backoff_total: u64 = 0;
    let mut next_backoff: u64 = 0;
    loop {
        let mut session = match latest.as_ref() {
            Some(snapshot) => SessionBuilder::new(config.clone())
                .procedures(procedures.to_vec())
                .observer(&mut *obs)
                .faults(&mut *faults)
                .checkpoints()
                .mode(mode)
                .resume(snapshot)
                .expect("snapshot captured by this supervisor resumes under the same config"),
            None => {
                if restarts > 0 {
                    faults.restore_state(fresh_fault_state);
                }
                SessionBuilder::new(config.clone())
                    .procedures(procedures.to_vec())
                    .observer(&mut *obs)
                    .faults(&mut *faults)
                    .checkpoints()
                    .mode(mode)
                    .build()
            }
        };
        if restarts > 0 {
            session.mark_restarted(restarts, next_backoff);
        }
        let skip = usize::try_from(session.events_consumed()).unwrap_or(usize::MAX);
        for event in events.iter().skip(skip) {
            session.on_event(*event);
            if session.crashed() {
                break;
            }
        }
        if !session.crashed() {
            let image_digest = Some(session.image_digest());
            let report = session.finish(name);
            return SupervisedOutcome {
                report: Some(report),
                restarts,
                gave_up: false,
                image_digest,
                backoff_total,
            };
        }
        // The segment died. Leave its image consistent (torn edits roll
        // forward) and salvage the last snapshot for the next attempt.
        crashes += 1;
        session.crash_recover();
        latest = session.latest_snapshot().cloned();
        drop(session);
        if restarts >= policy.max_restarts {
            obs.on(&tev::Event::RecoveryGaveUp(tev::RecoveryGaveUp {
                restarts,
                crashes,
            }));
            return SupervisedOutcome {
                report: None,
                restarts,
                gave_up: true,
                image_digest: None,
                backoff_total,
            };
        }
        restarts += 1;
        next_backoff = policy.backoff(restarts);
        backoff_total = backoff_total.saturating_add(next_backoff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hds_core::{NullObserver, PrefetchPolicy};
    use hds_guard::{FaultPlan, FaultRates, NoFaults};
    use hds_telemetry::MetricsRecorder;
    use hds_vulcan::ProgramSource;
    use hds_workloads::{SyntheticConfig, SyntheticWorkload, Workload};

    fn events_of(total_refs: u64) -> (Vec<Event>, Vec<Procedure>) {
        let mut w = SyntheticWorkload::new(SyntheticConfig {
            total_refs,
            ..SyntheticConfig::default()
        });
        let procs = w.procedures();
        let mut events = Vec::new();
        while let Some(e) = w.next_event() {
            events.push(e);
        }
        (events, procs)
    }

    fn baseline(
        config: &OptimizerConfig,
        events: &[Event],
        procs: &[Procedure],
        faults: &mut FaultPlan,
    ) -> (RunReport, u64) {
        let mut session = SessionBuilder::new(config.clone())
            .procedures(procs.to_vec())
            .faults(&mut *faults)
            .checkpoints()
            .optimize(PrefetchPolicy::StreamTail)
            .build();
        for e in events {
            session.on_event(*e);
        }
        let digest = session.image_digest();
        (session.finish("supervised"), digest)
    }

    #[test]
    fn backoff_is_capped_exponential_and_never_overflows() {
        let policy = SupervisorPolicy {
            backoff_base: 1_000,
            backoff_cap: 6_000,
            max_restarts: 8,
        };
        assert_eq!(policy.backoff(1), 1_000);
        assert_eq!(policy.backoff(2), 2_000);
        assert_eq!(policy.backoff(3), 4_000);
        assert_eq!(policy.backoff(4), 6_000);
        assert_eq!(policy.backoff(70), 6_000);
    }

    #[test]
    fn crash_free_supervision_matches_a_plain_checkpointed_run() {
        let (events, procs) = events_of(60_000);
        let config = OptimizerConfig::test_scale();
        let (plain, plain_digest) =
            baseline(&config, &events, &procs, &mut FaultPlan::from_seed(11));
        let outcome = supervise(
            &config,
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &procs,
            &events,
            "supervised",
            SupervisorPolicy::default(),
            &mut NullObserver,
            &mut FaultPlan::from_seed(11),
        );
        assert_eq!(outcome.restarts, 0);
        assert!(!outcome.gave_up);
        assert_eq!(outcome.backoff_total, 0);
        assert_eq!(outcome.image_digest, Some(plain_digest));
        assert_eq!(outcome.report.expect("run completed"), plain);
    }

    #[test]
    fn crashy_supervision_recovers_bit_identically() {
        let (events, procs) = events_of(60_000);
        let config = OptimizerConfig::test_scale();
        let mut recovered = 0;
        for seed in 0..24u64 {
            let mut plan = FaultPlan::crashy(seed, 2);
            let mut metrics = MetricsRecorder::new();
            let outcome = supervise(
                &config,
                RunMode::Optimize(PrefetchPolicy::StreamTail),
                &procs,
                &events,
                "supervised",
                SupervisorPolicy::default(),
                &mut metrics,
                &mut plan,
            );
            let report = outcome.report.expect("budgeted chaos always completes");
            assert_eq!(u64::from(outcome.restarts), report.restarts);
            assert_eq!(metrics.recovery_restarts(), report.restarts);
            // `crashy` derives in-simulation rates identically to
            // `from_seed`, so the crash-free twin is the ground truth.
            let mut twin = report.clone();
            twin.restarts = 0;
            let (plain, plain_digest) =
                baseline(&config, &events, &procs, &mut FaultPlan::from_seed(seed));
            assert_eq!(twin, plain, "seed {seed}: recovered run diverged");
            assert_eq!(
                outcome.image_digest,
                Some(plain_digest),
                "seed {seed}: recovered image diverged"
            );
            if outcome.restarts > 0 {
                recovered += 1;
            }
        }
        assert!(recovered > 0, "no seed in the sweep ever crashed");
    }

    #[test]
    fn circuit_breaker_opens_after_max_restarts() {
        let (events, procs) = events_of(50_000);
        let config = OptimizerConfig::test_scale();
        let mut plan = FaultPlan::with_rates(
            7,
            FaultRates {
                crash_phase_boundary: 1000,
                ..FaultRates::quiet()
            },
        );
        let mut metrics = MetricsRecorder::new();
        let policy = SupervisorPolicy {
            backoff_base: 100,
            backoff_cap: 250,
            max_restarts: 3,
        };
        let outcome = supervise(
            &config,
            RunMode::Optimize(PrefetchPolicy::StreamTail),
            &procs,
            &events,
            "supervised",
            policy,
            &mut metrics,
            &mut plan,
        );
        assert!(outcome.gave_up);
        assert!(outcome.report.is_none());
        assert_eq!(outcome.restarts, 3);
        assert_eq!(outcome.backoff_total, 100 + 200 + 250);
        assert_eq!(metrics.recovery_gave_ups(), 1);
        assert_eq!(metrics.recovery_restarts(), 3);
        assert!(plan.crashes_fired() >= 4);
    }

    #[test]
    fn supervision_without_faults_is_a_plain_run() {
        let (events, procs) = events_of(40_000);
        let config = OptimizerConfig::test_scale();
        let outcome = supervise(
            &config,
            RunMode::Analyze,
            &procs,
            &events,
            "supervised",
            SupervisorPolicy::default(),
            &mut NullObserver,
            &mut NoFaults,
        );
        let report = outcome.report.expect("fault-free run completes");
        assert_eq!(report.restarts, 0);
        assert!(report.snapshots >= 1, "checkpointing was on");
    }
}
