//! Crash-consistency integration tests: checkpointed runs resume
//! bit-identically, corrupted snapshots are rejected with typed errors,
//! torn edits roll forward, and no worker thread outlives its session.

use hds_core::{
    AnalysisConcurrency, CrashPoint, FaultInjector, OptimizerConfig, PrefetchPolicy, RunMode,
    Session, SessionBuilder, Snapshot, SnapshotError,
};
use hds_guard::{AccuracyConfig, GuardConfig};
use hds_vulcan::{Event, Procedure, ProgramSource};
use hds_workloads::{SyntheticConfig, SyntheticWorkload, Workload};
use proptest::prelude::*;

fn workload(total_refs: u64) -> SyntheticWorkload {
    SyntheticWorkload::new(SyntheticConfig {
        total_refs,
        ..SyntheticConfig::default()
    })
}

/// Drains a workload into a replayable event vector (plus procedures).
fn events_of(total_refs: u64) -> (Vec<Event>, Vec<Procedure>) {
    let mut w = workload(total_refs);
    let procs = w.procedures();
    let mut events = Vec::new();
    while let Some(e) = w.next_event() {
        events.push(e);
    }
    (events, procs)
}

fn config_inline() -> OptimizerConfig {
    OptimizerConfig::test_scale()
}

fn config_background_guarded() -> OptimizerConfig {
    let mut config = OptimizerConfig::test_scale();
    config.concurrency = AnalysisConcurrency::Background;
    config.guard = GuardConfig::default().with_accuracy(AccuracyConfig::new());
    config
}

/// Runs the full event vector through a fresh checkpointed session,
/// returning `(report, image_digest, a mid-run snapshot)`.
fn uninterrupted(
    config: &OptimizerConfig,
    events: &[Event],
    procs: &[Procedure],
    snapshot_at: u64,
) -> (hds_core::RunReport, u64, Option<Snapshot>) {
    let mut session = SessionBuilder::new(config.clone())
        .procedures(procs.to_vec())
        .checkpoints()
        .optimize(PrefetchPolicy::StreamTail)
        .build();
    let mut mid = None;
    for e in events {
        session.on_event(*e);
        if mid.is_none() && session.snapshots_taken() >= snapshot_at {
            mid = session.latest_snapshot().cloned();
        }
    }
    let digest = session.image_digest();
    (session.finish("recover"), digest, mid)
}

#[test]
fn resume_from_mid_run_snapshot_is_bit_identical() {
    for config in [config_inline(), config_background_guarded()] {
        let (events, procs) = events_of(60_000);
        let (full, full_digest, mid) = uninterrupted(&config, &events, &procs, 2);
        assert!(full.snapshots >= 2, "run too short to checkpoint twice");
        let snap = mid.expect("mid-run snapshot captured");

        // Re-validate the blob from raw bytes, then resume from it.
        let snap = Snapshot::from_bytes(snap.into_bytes()).expect("snapshot self-validates");
        let mut resumed = SessionBuilder::new(config.clone())
            .procedures(procs.clone())
            .optimize(PrefetchPolicy::StreamTail)
            .resume(&snap)
            .expect("snapshot resumes");
        let skip = usize::try_from(resumed.events_consumed()).unwrap();
        for e in &events[skip..] {
            resumed.on_event(*e);
        }
        assert_eq!(resumed.image_digest(), full_digest);
        let report = resumed.finish("recover");
        assert_eq!(report, full, "resumed run diverged from uninterrupted run");
    }
}

#[test]
fn resume_rejects_config_and_mode_mismatches() {
    let (events, procs) = events_of(40_000);
    let config = config_inline();
    let (_, _, mid) = uninterrupted(&config, &events, &procs, 1);
    let snap = mid.expect("snapshot captured");

    let mut other = config.clone();
    other.max_streams += 1;
    let err = SessionBuilder::new(other)
        .procedures(procs.clone())
        .optimize(PrefetchPolicy::StreamTail)
        .resume(&snap)
        .unwrap_err();
    assert!(matches!(err, SnapshotError::ConfigMismatch { .. }));

    let err = SessionBuilder::new(config)
        .procedures(procs)
        .mode(RunMode::Analyze)
        .resume(&snap)
        .unwrap_err();
    assert!(matches!(err, SnapshotError::ConfigMismatch { .. }));
}

#[test]
fn checkpointing_is_timing_neutral() {
    let (events, procs) = events_of(50_000);
    let config = config_inline();
    let (with_ck, ck_digest, _) = uninterrupted(&config, &events, &procs, u64::MAX);
    let mut plain = SessionBuilder::new(config)
        .procedures(procs)
        .optimize(PrefetchPolicy::StreamTail)
        .build();
    for e in &events {
        plain.on_event(*e);
    }
    assert_eq!(plain.image_digest(), ck_digest);
    let mut plain = plain.finish("recover");
    assert_eq!(plain.snapshots, 0);
    plain.snapshots = with_ck.snapshots;
    assert_eq!(plain, with_ck, "checkpointing perturbed the simulation");
}

/// Length of the snapshot header: `HDSSNAP2` plus the payload's
/// CRC-32.
const HEADER_LEN: usize = 12;

fn snapshot_fixture() -> &'static Snapshot {
    use std::sync::OnceLock;
    static SNAP: OnceLock<Snapshot> = OnceLock::new();
    SNAP.get_or_init(|| {
        let (events, procs) = events_of(40_000);
        let (_, _, mid) = uninterrupted(&config_background_guarded(), &events, &procs, 1);
        mid.expect("snapshot captured")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any bit of any byte must yield a typed error — never a
    /// panic, never a silent load. Payload bytes (offset >=
    /// `HEADER_LEN`) specifically fail the checksum.
    #[test]
    fn corrupting_one_byte_is_rejected_typed(pos in any::<u64>(), mask in 1u8..=255) {
        let snap = snapshot_fixture();
        let mut bytes = snap.as_bytes().to_vec();
        let pos = (pos as usize) % bytes.len();
        bytes[pos] ^= mask;
        match Snapshot::from_bytes(bytes) {
            Ok(reparsed) => {
                // The only legal "success" is the degenerate non-flip
                // (impossible: mask != 0), so reject outright.
                prop_assert_eq!(reparsed.as_bytes(), snap.as_bytes());
                return Err(TestCaseError::fail("corrupted snapshot loaded"));
            }
            Err(SnapshotError::ChecksumMismatch { expected, found }) => {
                prop_assert_ne!(expected, found);
            }
            Err(
                SnapshotError::BadMagic
                | SnapshotError::UnsupportedVersion(_)
                | SnapshotError::Malformed(_),
            ) => {
                // Header corruption: typed rejection before the body is
                // even checksummed.
                prop_assert!(pos < HEADER_LEN, "payload corruption at {} must be ChecksumMismatch", pos);
            }
            Err(e @ SnapshotError::ConfigMismatch { .. }) => {
                return Err(TestCaseError::fail(format!("unexpected error: {e}")));
            }
        }
        if pos >= HEADER_LEN {
            let mut bytes = snap.as_bytes().to_vec();
            bytes[pos] ^= mask;
            let is_checksum = matches!(
                Snapshot::from_bytes(bytes),
                Err(SnapshotError::ChecksumMismatch { .. })
            );
            prop_assert!(is_checksum);
        }
    }

    /// Truncation at any length is also a typed rejection.
    #[test]
    fn truncating_is_rejected_typed(keep in any::<u64>()) {
        let snap = snapshot_fixture();
        let keep = (keep as usize) % snap.len();
        let bytes = snap.as_bytes()[..keep].to_vec();
        prop_assert!(Snapshot::from_bytes(bytes).is_err());
    }
}

/// A hand-scheduled injector: crashes exactly once at the requested
/// kill point, optionally poisoning every edit first (the satellite-b
/// crash × failed-edit composition).
#[derive(Debug)]
struct CrashOnce {
    point: CrashPoint,
    armed: bool,
    poison_edits: bool,
}

impl CrashOnce {
    fn at(point: CrashPoint) -> Self {
        CrashOnce {
            point,
            armed: true,
            poison_edits: false,
        }
    }
    fn with_poisoned_edits(mut self) -> Self {
        self.poison_edits = true;
        self
    }
}

impl FaultInjector for CrashOnce {
    fn fail_edit(&mut self, pc: hds_trace::Pc) -> Option<hds_vulcan::EditError> {
        self.poison_edits
            .then_some(hds_vulcan::EditError::Induced(pc))
    }
    fn crash(&mut self, point: CrashPoint) -> bool {
        if self.armed && point == self.point {
            self.armed = false;
            return true;
        }
        false
    }
}

/// Feeds events until the session crashes; returns how many were fed.
fn run_until_crash<F: FaultInjector>(
    session: &mut Session<hds_core::NullObserver, F>,
    events: &[Event],
) -> usize {
    for (i, e) in events.iter().enumerate() {
        session.on_event(*e);
        if session.crashed() {
            return i + 1;
        }
    }
    events.len()
}

#[test]
fn crash_at_phase_boundary_leaves_that_boundarys_snapshot() {
    let (events, procs) = events_of(60_000);
    let mut session = SessionBuilder::new(config_inline())
        .procedures(procs.clone())
        .faults(CrashOnce::at(CrashPoint::PhaseBoundary))
        .checkpoints()
        .optimize(PrefetchPolicy::StreamTail)
        .build();
    let fed = run_until_crash(&mut session, &events);
    assert!(session.crashed(), "phase boundary never reached");
    assert!(fed < events.len());
    // Capture precedes the crash draw: the killing boundary's snapshot
    // survives, and its resume point is exactly the crash event.
    assert_eq!(session.snapshots_taken(), 1);
    assert!(!session.crash_recover(), "no edit was in flight");
    let snap = session.latest_snapshot().cloned().expect("snapshot");
    let resumed = SessionBuilder::new(config_inline())
        .procedures(procs)
        .optimize(PrefetchPolicy::StreamTail)
        .resume(&snap)
        .expect("boundary snapshot resumes");
    assert_eq!(resumed.events_consumed(), fed as u64);
    assert_eq!(resumed.snapshots_taken(), 1);
}

#[test]
fn torn_mid_edit_commit_rolls_forward_to_the_committed_image() {
    let (events, procs) = events_of(60_000);

    // Clean twin: same events, no faults.
    let mut clean = SessionBuilder::new(config_inline())
        .procedures(procs.clone())
        .optimize(PrefetchPolicy::StreamTail)
        .build();
    // Crashing session: dies midway through its first image edit.
    let mut torn = SessionBuilder::new(config_inline())
        .procedures(procs)
        .faults(CrashOnce::at(CrashPoint::MidEdit))
        .optimize(PrefetchPolicy::StreamTail)
        .build();
    let fed = run_until_crash(&mut torn, &events);
    assert!(torn.crashed(), "mid-edit kill point never reached");
    for e in &events[..fed] {
        clean.on_event(*e);
    }
    // The torn image differs from the committed one (a strict prefix of
    // the patches landed)...
    assert_ne!(torn.image_digest(), clean.image_digest());
    // ...and journal replay rolls it forward to exactly the committed
    // image. Idempotent: a second recover finds nothing pending.
    assert!(torn.crash_recover(), "journal held the torn entry");
    assert_eq!(torn.image_digest(), clean.image_digest());
    assert!(!torn.crash_recover());
    assert_eq!(torn.image_digest(), clean.image_digest());
}

#[test]
fn crash_on_an_already_failed_edit_rolls_back_exactly_once() {
    let (events, procs) = events_of(60_000);

    // Clean twin whose edits are poisoned but which never crashes: the
    // canonical single-rollback image.
    let mut rolled = SessionBuilder::new(config_inline())
        .procedures(procs.clone())
        .faults(CrashOnce::at(CrashPoint::PhaseBoundary).with_poisoned_edits())
        .optimize(PrefetchPolicy::StreamTail)
        .build();
    // Crash lands *inside* the already-failed edit.
    let mut both = SessionBuilder::new(config_inline())
        .procedures(procs)
        .faults(CrashOnce::at(CrashPoint::MidEdit).with_poisoned_edits())
        .optimize(PrefetchPolicy::StreamTail)
        .build();
    let fed = run_until_crash(&mut both, &events);
    assert!(both.crashed(), "mid-edit kill point never reached");
    for e in &events[..fed] {
        rolled.on_event(*e);
    }
    // A poisoned commit rolls back atomically WITHOUT journaling, so
    // the crash must not have queued a second (replayed) rollback.
    assert_eq!(both.image_digest(), rolled.image_digest());
    assert!(!both.crash_recover(), "poisoned edit must not journal");
    assert_eq!(both.image_digest(), rolled.image_digest());
}

#[test]
fn crash_mid_handoff_dies_before_hibernation() {
    let (events, procs) = events_of(60_000);
    let mut session = SessionBuilder::new(config_background_guarded())
        .procedures(procs)
        .faults(CrashOnce::at(CrashPoint::MidHandoff))
        .checkpoints()
        .optimize(PrefetchPolicy::StreamTail)
        .build();
    let fed = run_until_crash(&mut session, &events);
    assert!(session.crashed(), "mid-handoff kill point never reached");
    assert!(fed < events.len());
    // The handoff boundary was never completed: no snapshot was taken
    // at it (the previous boundary's snapshot, if any, is the latest).
    assert!(!session.crash_recover(), "handoff crash tears no edit");
}

#[test]
fn dropping_a_mid_awake_session_leaves_no_detached_worker() {
    let (events, procs) = events_of(60_000);
    let mut session = SessionBuilder::new(config_background_guarded())
        .procedures(procs)
        .optimize(PrefetchPolicy::StreamTail)
        .build();
    // Stop mid-awake (well before the first phase boundary).
    for e in &events[..200] {
        session.on_event(*e);
    }
    let probe = session
        .worker_probe()
        .expect("background mode has a worker");
    assert!(
        probe.upgrade().is_some(),
        "worker alive while session lives"
    );
    drop(session);
    // Drop signals shutdown and joins: by the time drop returns, the
    // worker thread has exited and released its liveness token.
    assert!(
        probe.upgrade().is_none(),
        "worker thread outlived its session"
    );
}

#[test]
fn resumed_session_reports_restarts_when_marked() {
    let (events, procs) = events_of(40_000);
    let config = config_inline();
    let (_, _, mid) = uninterrupted(&config, &events, &procs, 1);
    let snap = mid.expect("snapshot captured");
    let mut resumed = SessionBuilder::new(config)
        .procedures(procs)
        .optimize(PrefetchPolicy::StreamTail)
        .resume(&snap)
        .expect("snapshot resumes");
    resumed.mark_restarted(3, 8_000);
    let skip = usize::try_from(resumed.events_consumed()).unwrap();
    for e in &events[skip..] {
        resumed.on_event(*e);
    }
    let report = resumed.finish("recover");
    assert_eq!(report.restarts, 3);
    assert!(report.snapshots >= 1);
}
