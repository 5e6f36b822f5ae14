//! Deterministic, seeded fault injection for the optimize cycle.
//!
//! The executor is generic over a [`FaultInjector`], exactly as it is
//! generic over `hds-telemetry`'s `Observer`: the default [`NoFaults`]
//! sets [`FaultInjector::ENABLED`] to `false`, so every injection site
//! monomorphizes to nothing in production builds. [`FaultPlan`] is the
//! chaos-testing implementation: a seeded xorshift generator drives
//! per-site fault probabilities, so a failing schedule replays exactly
//! from its seed.

use std::fmt;

use hds_trace::rng::XorShift64Star;
use hds_trace::{Addr, DataRef};
use hds_vulcan::EditError;

/// Where a crash fault can kill the optimizer process (simulated: the
/// session stops consuming events and must be restarted from its last
/// snapshot by a supervisor).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// At an awake/hibernate phase boundary, after the boundary's
    /// snapshot was captured.
    PhaseBoundary,
    /// Inside a stop-the-world edit, after the write-ahead journal was
    /// written but before every patch landed (a torn image).
    MidEdit,
    /// During the handoff of a trace to the background analysis worker.
    MidHandoff,
    /// Midway through feeding a tenant's trace chunk into its session
    /// (the serving layer's shard worker dies between two events of one
    /// wire frame). Consulted once per chunk by `hds-serve`, never by
    /// the single-process executor.
    MidFrame,
}

impl CrashPoint {
    /// Every kill-point class, for coverage assertions.
    pub const ALL: [CrashPoint; 4] = [
        CrashPoint::PhaseBoundary,
        CrashPoint::MidEdit,
        CrashPoint::MidHandoff,
        CrashPoint::MidFrame,
    ];
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CrashPoint::PhaseBoundary => "phase-boundary",
            CrashPoint::MidEdit => "mid-edit",
            CrashPoint::MidHandoff => "mid-handoff",
            CrashPoint::MidFrame => "mid-frame",
        };
        f.write_str(s)
    }
}

/// Injection points the executor exposes. Every hook has a benign
/// default, so implementations override only the faults they model.
pub trait FaultInjector {
    /// Whether this injector can fire at all. `false` only for
    /// [`NoFaults`] (and references to it): injection sites compile to
    /// nothing when this is `false`.
    const ENABLED: bool = true;

    /// May corrupt a data reference before it is traced (a torn read of
    /// the profiling buffer). The reference actually *executed* is
    /// unchanged — only the profile sees the corruption.
    fn corrupt_ref(&mut self, r: DataRef) -> DataRef {
        r
    }

    /// When `true`, the current trace burst is truncated: the buffer's
    /// contents so far are dropped (a profiling-buffer overflow).
    fn truncate_trace(&mut self) -> bool {
        false
    }

    /// May force the binary editor to fail at `pc` mid-edit. The
    /// executor poisons the edit session with the returned error; the
    /// session then rolls back atomically.
    fn fail_edit(&mut self, pc: hds_trace::Pc) -> Option<EditError> {
        let _ = pc;
        None
    }

    /// May inject a thread switch *during* a stop-the-world edit: the
    /// returned thread (index into `0..threads`) performs a procedure
    /// entry immediately after the edit commits, exercising the
    /// stale-activation epoch discipline.
    fn edit_thread_switch(&mut self, threads: u32) -> Option<u32> {
        let _ = threads;
        None
    }

    /// When `true`, the end-of-awake analysis is starved of its budget:
    /// the executor must skip analysis and optimization for this cycle
    /// as if the analysis-cycle guard had tripped.
    fn starve_analysis(&mut self) -> bool {
        false
    }

    /// Extra simulated cycles the background analysis worker is stalled
    /// beyond its modeled latency of `base_cycles` (a slow or preempted
    /// worker in concurrent-analysis mode). The delay pushes the
    /// result's ready point later in simulated time, so a large stall
    /// deterministically drives the starvation / worker-lag guard path.
    fn stall_worker(&mut self, base_cycles: u64) -> u64 {
        let _ = base_cycles;
        0
    }

    /// When `true`, the process dies at this kill point: the session
    /// stops consuming events and a supervisor must restart it from its
    /// last snapshot. Crash decisions must come from a *separate* random
    /// stream than the in-simulation faults, so a restarted segment
    /// re-draws its in-simulation faults identically without re-drawing
    /// the crash that killed it.
    fn crash(&mut self, point: CrashPoint) -> bool {
        let _ = point;
        false
    }

    /// The injector's in-simulation random state, for inclusion in a
    /// snapshot ([`FaultInjector::restore_state`] is its inverse). The
    /// crash stream and fault counters are *not* part of this state —
    /// they belong to the supervisor's lifetime, not the segment's.
    fn snapshot_state(&self) -> u64 {
        0
    }

    /// Restores the in-simulation random state captured by
    /// [`FaultInjector::snapshot_state`], so a re-executed segment
    /// re-draws exactly the faults the original execution drew.
    fn restore_state(&mut self, state: u64) {
        let _ = state;
    }
}

/// The no-fault injector: every hook is benign and
/// [`FaultInjector::ENABLED`] is `false`, so faultable code
/// monomorphizes to exactly the unfaulted code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    const ENABLED: bool = false;
}

/// Forwarding through a mutable reference, so a plan can stay owned by
/// the test harness while a session borrows it.
impl<F: FaultInjector> FaultInjector for &mut F {
    const ENABLED: bool = F::ENABLED;

    fn corrupt_ref(&mut self, r: DataRef) -> DataRef {
        (**self).corrupt_ref(r)
    }
    fn truncate_trace(&mut self) -> bool {
        (**self).truncate_trace()
    }
    fn fail_edit(&mut self, pc: hds_trace::Pc) -> Option<EditError> {
        (**self).fail_edit(pc)
    }
    fn edit_thread_switch(&mut self, threads: u32) -> Option<u32> {
        (**self).edit_thread_switch(threads)
    }
    fn starve_analysis(&mut self) -> bool {
        (**self).starve_analysis()
    }
    fn stall_worker(&mut self, base_cycles: u64) -> u64 {
        (**self).stall_worker(base_cycles)
    }
    fn crash(&mut self, point: CrashPoint) -> bool {
        (**self).crash(point)
    }
    fn snapshot_state(&self) -> u64 {
        (**self).snapshot_state()
    }
    fn restore_state(&mut self, state: u64) {
        (**self).restore_state(state);
    }
}

/// Per-site fault probabilities in permille (0–1000).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultRates {
    /// Chance a traced reference's address is corrupted.
    pub corrupt_ref: u16,
    /// Chance a burst's trace buffer is truncated.
    pub truncate_trace: u16,
    /// Chance an individual injection fails mid-edit.
    pub fail_edit: u16,
    /// Chance a thread switch is injected around a stop-the-world edit.
    pub thread_switch: u16,
    /// Chance the analysis budget is starved for a cycle.
    pub starve_analysis: u16,
    /// Chance the background analysis worker is stalled for a handoff
    /// (concurrent-analysis mode).
    pub stall_worker: u16,
    /// Chance the process dies at a phase boundary (after the boundary
    /// snapshot was captured).
    pub crash_phase_boundary: u16,
    /// Chance the process dies mid-edit, tearing the journaled commit.
    pub crash_mid_edit: u16,
    /// Chance the process dies during a background-analysis handoff.
    pub crash_mid_handoff: u16,
    /// Chance a serving-layer shard worker dies midway through feeding
    /// one tenant's trace chunk.
    pub crash_mid_frame: u16,
}

impl FaultRates {
    /// Every rate zero: the plan never fires (useful to prove the plan
    /// itself is transparent).
    #[must_use]
    pub const fn quiet() -> Self {
        FaultRates {
            corrupt_ref: 0,
            truncate_trace: 0,
            fail_edit: 0,
            thread_switch: 0,
            starve_analysis: 0,
            stall_worker: 0,
            crash_phase_boundary: 0,
            crash_mid_edit: 0,
            crash_mid_handoff: 0,
            crash_mid_frame: 0,
        }
    }
}

/// How often each fault actually fired (for post-run reconciliation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// References whose profiled address was corrupted.
    pub corrupted_refs: u64,
    /// Trace bursts truncated.
    pub truncated_traces: u64,
    /// Edits forced to fail.
    pub failed_edits: u64,
    /// Thread switches injected around edits.
    pub injected_switches: u64,
    /// Analysis passes starved.
    pub starved_analyses: u64,
    /// Background analysis workers stalled.
    pub stalled_workers: u64,
    /// Crash faults fired (process kills; lifetime across restarts).
    pub crashes: u64,
}

impl FaultCounts {
    /// Total faults fired across every site.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.corrupted_refs
            + self.truncated_traces
            + self.failed_edits
            + self.injected_switches
            + self.starved_analyses
            + self.stalled_workers
            + self.crashes
    }
}

/// A deterministic fault schedule: a seeded xorshift64* generator drives
/// per-site probabilities, so every decision replays exactly from
/// `(seed, rates)`.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    rng: XorShift64Star,
    /// Separate stream for crash decisions: never part of a snapshot, so
    /// a restarted segment re-draws its in-simulation faults without
    /// re-drawing the crash that killed it.
    crash_rng: XorShift64Star,
    rates: FaultRates,
    counts: FaultCounts,
    /// Lifetime cap on crash faults (the chaos harness's termination
    /// guarantee: after the budget is spent, the run completes).
    max_crashes: u32,
    crashes_fired: u32,
}

impl FaultPlan {
    /// A plan with rates derived from the seed itself: each site gets a
    /// small random probability, so a population of seeds covers many
    /// fault mixes. Used by the chaos harness.
    ///
    /// The per-site ranges are scaled to how often each hook fires:
    /// `corrupt_ref` and `truncate_trace` are consulted once per traced
    /// reference (hundreds of times per burst) and `fail_edit` once per
    /// injection in an all-or-nothing edit session (tens per install),
    /// so their rates stay in the low permille — high enough to corrupt
    /// profiles and roll back sessions regularly, low enough that some
    /// bursts and commits survive intact and the optimizer still
    /// reaches its install/deoptimize paths under fault.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut plan = FaultPlan::with_rates(seed, FaultRates::quiet());
        #[allow(clippy::cast_possible_truncation)]
        let rates = FaultRates {
            corrupt_ref: (plan.rng.next_u64() % 8) as u16,
            truncate_trace: (plan.rng.next_u64() % 3) as u16,
            fail_edit: (plan.rng.next_u64() % 40) as u16,
            thread_switch: (plan.rng.next_u64() % 200) as u16,
            starve_analysis: (plan.rng.next_u64() % 80) as u16,
            stall_worker: (plan.rng.next_u64() % 150) as u16,
            ..FaultRates::quiet() // crash rates stay zero: from_seed plans never kill
        };
        plan.rates = rates;
        plan
    }

    /// A plan with explicit rates.
    #[must_use]
    pub fn with_rates(seed: u64, rates: FaultRates) -> Self {
        // Scramble the seed into a nonzero xorshift state; the crash
        // stream gets an independent scramble of the same seed.
        FaultPlan {
            rng: nonzero_stream(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x2545_F491_4F6C_DD1D,
                0x2545_F491_4F6C_DD1D,
            ),
            crash_rng: nonzero_stream(
                seed.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ 0x94D0_49BB_1331_11EB,
                0x94D0_49BB_1331_11EB,
            ),
            rates,
            counts: FaultCounts::default(),
            max_crashes: u32::MAX,
            crashes_fired: 0,
        }
    }

    /// A chaos-crash plan: in-simulation fault rates as
    /// [`FaultPlan::from_seed`], plus seed-derived kill probabilities at
    /// every [`CrashPoint`] class, capped at `max_crashes` lifetime
    /// kills so every schedule terminates. One plan supervises a whole
    /// restart lineage: the crash stream and budget persist across
    /// restarts while the in-simulation stream is snapshot-restored.
    #[must_use]
    pub fn crashy(seed: u64, max_crashes: u32) -> Self {
        let mut plan = FaultPlan::from_seed(seed);
        // Kill points are rare (a handful of boundaries and installs per
        // run), so the rates are high enough that most schedules crash
        // at least once.
        #[allow(clippy::cast_possible_truncation)]
        {
            plan.rates.crash_phase_boundary = 150 + (plan.crash_rng.next_u64() % 500) as u16;
            plan.rates.crash_mid_edit = 200 + (plan.crash_rng.next_u64() % 600) as u16;
            plan.rates.crash_mid_handoff = 200 + (plan.crash_rng.next_u64() % 600) as u16;
            // Chunk feeds are frequent (one draw per wire frame), so the
            // mid-frame rate stays lower than the rare kill points.
            plan.rates.crash_mid_frame = 50 + (plan.crash_rng.next_u64() % 250) as u16;
        }
        plan.max_crashes = max_crashes;
        plan
    }

    /// Caps the lifetime crash budget (how many kills this plan may
    /// deal across a whole restart lineage). Lets hand-rated plans —
    /// e.g. "every edit fails *and* every install crashes" — terminate
    /// under supervision the way [`FaultPlan::crashy`] schedules do.
    #[must_use]
    pub fn with_max_crashes(mut self, max_crashes: u32) -> Self {
        self.max_crashes = max_crashes;
        self
    }

    /// A plan that fails *every* edit and nothing else: the optimizer
    /// can never install code, so the run must match the unoptimized
    /// baseline exactly.
    #[must_use]
    pub fn edits_always_fail(seed: u64) -> Self {
        FaultPlan::with_rates(
            seed,
            FaultRates {
                fail_edit: 1000,
                ..FaultRates::quiet()
            },
        )
    }

    /// The configured rates.
    #[must_use]
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// How often each fault fired so far.
    #[must_use]
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Crash faults fired so far (against the lifetime budget).
    #[must_use]
    pub fn crashes_fired(&self) -> u32 {
        self.crashes_fired
    }

    /// The lifetime crash budget.
    #[must_use]
    pub fn max_crashes(&self) -> u32 {
        self.max_crashes
    }

    fn chance(&mut self, permille: u16) -> bool {
        if permille == 0 {
            return false;
        }
        if permille >= 1000 {
            return true;
        }
        self.rng.next_u64() % 1000 < u64::from(permille)
    }
}

/// A generator over `state`, swapping xorshift's absorbing zero state
/// for `fallback`.
fn nonzero_stream(state: u64, fallback: u64) -> XorShift64Star {
    XorShift64Star::new(if state == 0 { fallback } else { state })
}

impl FaultInjector for FaultPlan {
    fn corrupt_ref(&mut self, r: DataRef) -> DataRef {
        if !self.chance(self.rates.corrupt_ref) {
            return r;
        }
        self.counts.corrupted_refs += 1;
        // Flip a few address bits — enough to fall into another cache
        // block so the corruption is observable downstream.
        let noise = (self.rng.next_u64() | 0x40) & 0xFFFF;
        DataRef {
            pc: r.pc,
            addr: Addr(r.addr.0 ^ noise),
        }
    }

    fn truncate_trace(&mut self) -> bool {
        let fire = self.chance(self.rates.truncate_trace);
        if fire {
            self.counts.truncated_traces += 1;
        }
        fire
    }

    fn fail_edit(&mut self, pc: hds_trace::Pc) -> Option<EditError> {
        if !self.chance(self.rates.fail_edit) {
            return None;
        }
        self.counts.failed_edits += 1;
        Some(EditError::Induced(pc))
    }

    fn edit_thread_switch(&mut self, threads: u32) -> Option<u32> {
        if threads == 0 || !self.chance(self.rates.thread_switch) {
            return None;
        }
        self.counts.injected_switches += 1;
        #[allow(clippy::cast_possible_truncation)]
        Some((self.rng.next_u64() % u64::from(threads)) as u32)
    }

    fn starve_analysis(&mut self) -> bool {
        let fire = self.chance(self.rates.starve_analysis);
        if fire {
            self.counts.starved_analyses += 1;
        }
        fire
    }

    fn stall_worker(&mut self, base_cycles: u64) -> u64 {
        if !self.chance(self.rates.stall_worker) {
            return 0;
        }
        self.counts.stalled_workers += 1;
        // 1x–8x the modeled latency: long enough that a large multiple
        // routinely overruns the hibernation span and starves the apply.
        base_cycles.saturating_mul(1 + self.rng.next_u64() % 8)
    }

    fn crash(&mut self, point: CrashPoint) -> bool {
        let permille = match point {
            CrashPoint::PhaseBoundary => self.rates.crash_phase_boundary,
            CrashPoint::MidEdit => self.rates.crash_mid_edit,
            CrashPoint::MidHandoff => self.rates.crash_mid_handoff,
            CrashPoint::MidFrame => self.rates.crash_mid_frame,
        };
        if permille == 0 || self.crashes_fired >= self.max_crashes {
            return false; // no draw: crash-free plans stay bit-identical
        }
        let fire = permille >= 1000 || self.crash_rng.next_u64() % 1000 < u64::from(permille);
        if fire {
            self.crashes_fired += 1;
            self.counts.crashes += 1;
        }
        fire
    }

    fn snapshot_state(&self) -> u64 {
        self.rng.state()
    }

    fn restore_state(&mut self, state: u64) {
        // No valid snapshot carries a zero state, but defend anyway.
        self.rng = nonzero_stream(state, 0x2545_F491_4F6C_DD1D);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hds_trace::Pc;

    #[test]
    fn enabled_flags() {
        const {
            assert!(!NoFaults::ENABLED);
            assert!(FaultPlan::ENABLED);
            assert!(<&mut FaultPlan as FaultInjector>::ENABLED);
        }
    }

    fn drive(plan: &mut FaultPlan, steps: u32) -> Vec<u64> {
        let mut log = Vec::new();
        for i in 0..steps {
            let r = DataRef::new(Pc(i), hds_trace::Addr(u64::from(i) * 64));
            log.push(plan.corrupt_ref(r).addr.0);
            log.push(u64::from(plan.truncate_trace()));
            log.push(plan.fail_edit(Pc(i)).is_some().into());
            log.push(u64::from(plan.edit_thread_switch(4).unwrap_or(99)));
            log.push(u64::from(plan.starve_analysis()));
            log.push(plan.stall_worker(1000));
        }
        log
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultPlan::from_seed(42);
        let mut b = FaultPlan::from_seed(42);
        assert_eq!(a.rates(), b.rates());
        assert_eq!(drive(&mut a, 500), drive(&mut b, 500));
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlan::from_seed(1);
        let mut b = FaultPlan::from_seed(2);
        assert_ne!(drive(&mut a, 500), drive(&mut b, 500));
    }

    #[test]
    fn quiet_rates_never_fire() {
        let mut plan = FaultPlan::with_rates(7, FaultRates::quiet());
        let r = DataRef::new(Pc(1), hds_trace::Addr(0x40));
        for _ in 0..200 {
            assert_eq!(plan.corrupt_ref(r), r);
            assert!(!plan.truncate_trace());
            assert!(plan.fail_edit(Pc(1)).is_none());
            assert!(plan.edit_thread_switch(8).is_none());
            assert!(!plan.starve_analysis());
            assert_eq!(plan.stall_worker(1000), 0);
        }
        assert_eq!(plan.counts().total(), 0);
    }

    #[test]
    fn stalls_scale_with_the_modeled_latency() {
        let mut plan = FaultPlan::with_rates(
            13,
            FaultRates {
                stall_worker: 1000,
                ..FaultRates::quiet()
            },
        );
        for _ in 0..50 {
            let extra = plan.stall_worker(1000);
            assert!(extra >= 1000, "a fired stall delays at least 1x the base");
            assert!(extra <= 8000);
        }
        assert_eq!(plan.counts().stalled_workers, 50);
    }

    #[test]
    fn edits_always_fail_fails_every_edit() {
        let mut plan = FaultPlan::edits_always_fail(3);
        for i in 0..50 {
            assert_eq!(plan.fail_edit(Pc(i)), Some(EditError::Induced(Pc(i))));
        }
        assert_eq!(plan.counts().failed_edits, 50);
        assert_eq!(plan.counts().corrupted_refs, 0);
    }

    #[test]
    fn corruption_changes_the_block_not_the_pc() {
        let mut plan = FaultPlan::with_rates(
            9,
            FaultRates {
                corrupt_ref: 1000,
                ..FaultRates::quiet()
            },
        );
        let r = DataRef::new(Pc(0x10), hds_trace::Addr(0x1000));
        let c = plan.corrupt_ref(r);
        assert_eq!(c.pc, r.pc);
        assert_ne!(c.addr.block(64), r.addr.block(64));
    }

    #[test]
    fn seed_zero_is_usable() {
        let mut plan = FaultPlan::from_seed(0);
        // Must not get stuck at a zero xorshift state.
        let a = plan.rng.next_u64();
        let b = plan.rng.next_u64();
        assert_ne!(a, b);
    }

    /// The crash stream is independent of the in-simulation stream: a
    /// plan that is also asked for crash decisions draws exactly the
    /// same in-simulation faults as one that is not.
    #[test]
    fn crash_stream_does_not_perturb_simulation_faults() {
        let mut plain = FaultPlan::crashy(17, 1000);
        let mut crashing = FaultPlan::crashy(17, 1000);
        let mut crashes = 0u32;
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..300 {
            a.extend(drive(&mut plain, 1));
            for point in CrashPoint::ALL {
                if crashing.crash(point) {
                    crashes += 1;
                }
            }
            b.extend(drive(&mut crashing, 1));
            let _ = i;
        }
        assert!(crashes > 0, "crashy plan never crashed");
        assert_eq!(a, b, "crash draws leaked into the simulation stream");
    }

    #[test]
    fn crash_budget_caps_lifetime_kills() {
        let mut plan = FaultPlan::crashy(5, 3);
        let mut fired = 0;
        for _ in 0..10_000 {
            if plan.crash(CrashPoint::PhaseBoundary) {
                fired += 1;
            }
        }
        assert_eq!(fired, 3);
        assert_eq!(plan.crashes_fired(), 3);
        assert_eq!(plan.counts().crashes, 3);
        assert_eq!(plan.max_crashes(), 3);
    }

    #[test]
    fn from_seed_and_quiet_plans_never_crash() {
        let mut plan = FaultPlan::from_seed(23);
        let mut quiet = FaultPlan::with_rates(23, FaultRates::quiet());
        for point in CrashPoint::ALL {
            for _ in 0..500 {
                assert!(!plan.crash(point));
                assert!(!quiet.crash(point));
            }
        }
        assert_eq!(plan.counts().crashes, 0);
    }

    /// Snapshot/restore of the in-simulation stream: a plan restored to
    /// a captured state re-draws exactly the faults the original drew
    /// from that point, even if crash decisions intervened.
    #[test]
    fn snapshot_restore_replays_simulation_stream() {
        let mut plan = FaultPlan::crashy(31, 1000);
        let _ = drive(&mut plan, 50);
        let saved = plan.snapshot_state();
        let replay_a = drive(&mut plan, 100);
        for point in CrashPoint::ALL {
            let _ = plan.crash(point); // crash draws must not matter
        }
        plan.restore_state(saved);
        let replay_b = drive(&mut plan, 100);
        assert_eq!(replay_a, replay_b);
        plan.restore_state(0); // degenerate state is made usable
        assert_ne!(plan.snapshot_state(), 0);
    }

    #[test]
    fn crash_point_display_and_all() {
        assert_eq!(CrashPoint::ALL.len(), 4);
        assert_eq!(CrashPoint::PhaseBoundary.to_string(), "phase-boundary");
        assert_eq!(CrashPoint::MidEdit.to_string(), "mid-edit");
        assert_eq!(CrashPoint::MidHandoff.to_string(), "mid-handoff");
        assert_eq!(CrashPoint::MidFrame.to_string(), "mid-frame");
    }

    #[test]
    fn thread_switch_stays_in_range() {
        let mut plan = FaultPlan::with_rates(
            11,
            FaultRates {
                thread_switch: 1000,
                ..FaultRates::quiet()
            },
        );
        for _ in 0..100 {
            let t = plan.edit_thread_switch(3).unwrap();
            assert!(t < 3);
        }
        assert!(plan.edit_thread_switch(0).is_none());
    }
}
