//! Seeded storage-fault injection, in the style of `hds-guard`'s
//! `FaultInjector` and `hds-serve`'s `ChaosTransport`.
//!
//! [`FaultyStorage`] wraps any [`Storage`] and, driven by a
//! [`StoreFaultPlan`], injects the failure modes a real disk exhibits:
//! torn (partial) appends, silent bit rot, `ENOSPC`, slow I/O, and
//! open/rename failures — plus a deterministic mid-operation *kill*
//! that models the process dying at an exact point in a spill,
//! compaction, or manifest swap. The same seed always yields the same
//! schedule, so every chaos failure is replayable.

use hds_trace::rng::{FaultRoll, XorShift64Star};

use crate::storage::{Storage, StorageError};

/// One class of injected storage fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreFault {
    /// An append writes only a prefix of its data and fails.
    Torn,
    /// An append silently flips one bit of the data it writes — the
    /// write *succeeds*; the damage is only discoverable by checksum
    /// on a later read.
    BitRot,
    /// An append hits `ENOSPC` after writing a prefix.
    NoSpace,
    /// The operation succeeds but is counted as pathologically slow
    /// (latency accounting; no semantic effect).
    SlowIo,
    /// A read/list fails to open the file.
    OpenFail,
    /// A rename (the commit-point primitive) fails; the namespace is
    /// unchanged.
    RenameFail,
}

impl StoreFault {
    /// Every fault class, in rate-array order.
    pub const ALL: [StoreFault; 6] = [
        StoreFault::Torn,
        StoreFault::BitRot,
        StoreFault::NoSpace,
        StoreFault::SlowIo,
        StoreFault::OpenFail,
        StoreFault::RenameFail,
    ];

    /// Stable lower-case label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StoreFault::Torn => "torn",
            StoreFault::BitRot => "bit_rot",
            StoreFault::NoSpace => "no_space",
            StoreFault::SlowIo => "slow_io",
            StoreFault::OpenFail => "open_fail",
            StoreFault::RenameFail => "rename_fail",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A seeded schedule of storage faults: per-mille rates per class, an
/// optional total-fault budget, and an optional kill point measured in
/// mutating operations. Deterministic — same seed, same schedule.
#[derive(Clone, Debug)]
pub struct StoreFaultPlan {
    roll: FaultRoll<6>,
    kill_after: Option<u64>,
}

impl StoreFaultPlan {
    /// No faults ever (the control arm).
    #[must_use]
    pub fn quiet() -> Self {
        StoreFaultPlan {
            roll: FaultRoll::new(1, [0; 6], u64::MAX),
            kill_after: None,
        }
    }

    /// Every fault class at a nasty rate, seeded.
    #[must_use]
    pub fn hostile(seed: u64) -> Self {
        StoreFaultPlan {
            roll: FaultRoll::new(seed | 1, [60, 40, 60, 80, 60, 60], u64::MAX),
            kill_after: None,
        }
    }

    /// Only one fault class, at `per_mille` probability per eligible
    /// operation.
    #[must_use]
    pub fn focused(seed: u64, fault: StoreFault, per_mille: u32) -> Self {
        StoreFaultPlan::quiet()
            .with_seed(seed)
            .with_rate(fault, per_mille)
    }

    /// Replaces the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.roll.rng = XorShift64Star::new(seed | 1);
        self
    }

    /// Sets one fault class's per-mille rate.
    #[must_use]
    pub fn with_rate(mut self, fault: StoreFault, per_mille: u32) -> Self {
        self.roll.rates[fault.index()] = per_mille.min(1000);
        self
    }

    /// Caps the total number of injected faults (kills excluded).
    #[must_use]
    pub fn with_max_faults(mut self, max: u64) -> Self {
        self.roll.max_faults = max;
        self
    }

    /// Kills the process (every subsequent op returns
    /// [`StorageError::Killed`]) at the `n`-th mutating operation,
    /// 0-indexed: sweeping `n` across a schedule lands the kill mid-
    /// spill, mid-compaction, and mid-manifest-swap.
    #[must_use]
    pub fn with_kill_after(mut self, n: u64) -> Self {
        self.kill_after = Some(n);
        self
    }

    /// Faults injected so far (kills excluded).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.roll.injected()
    }

    /// Faults injected of one class.
    #[must_use]
    pub fn count(&self, fault: StoreFault) -> u64 {
        self.roll.counts[fault.index()]
    }

    /// Draws at most one fault out of `eligible` for this operation.
    fn draw(&mut self, eligible: &[StoreFault]) -> Option<StoreFault> {
        self.roll
            .draw(eligible.iter().map(|&f| f.index()))
            .map(|i| StoreFault::ALL[i])
    }
}

/// A [`Storage`] wrapper that injects the plan's faults with the exact
/// semantics each class has on a real disk (prefix persists on torn
/// writes and `ENOSPC`; bit rot persists silently; open/rename
/// failures leave the namespace untouched).
#[derive(Debug)]
pub struct FaultyStorage<S> {
    inner: S,
    plan: StoreFaultPlan,
    mutating_ops: u64,
    killed: bool,
}

impl<S: Storage> FaultyStorage<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: StoreFaultPlan) -> Self {
        FaultyStorage {
            inner,
            plan,
            mutating_ops: 0,
            killed: false,
        }
    }

    /// The fault plan (schedule position, injected counts).
    #[must_use]
    pub fn plan(&self) -> &StoreFaultPlan {
        &self.plan
    }

    /// Whether the kill point has fired.
    #[must_use]
    pub fn killed(&self) -> bool {
        self.killed
    }

    /// Mutating operations (append/sync/rename/remove) charged so far.
    /// Running a schedule once against a quiet plan and reading this
    /// gives the sweep range for `with_kill_after`.
    #[must_use]
    pub fn mutating_ops(&self) -> u64 {
        self.mutating_ops
    }

    /// The wrapped storage, by reference (post-mortem inspection).
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped storage, mutably (corruption hooks in tests).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwraps the storage (e.g. to `crash()` a [`MemStorage`] and
    /// reopen it clean).
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Charges one mutating op against the kill point. Returns `true`
    /// when this op is the one the process dies in.
    fn check_kill(&mut self) -> bool {
        if self.killed {
            return true;
        }
        let at = self.mutating_ops;
        self.mutating_ops += 1;
        if self.plan.kill_after == Some(at) {
            self.killed = true;
            return true;
        }
        false
    }
}

impl<S: Storage> Storage for FaultyStorage<S> {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn list(&mut self) -> Result<Vec<String>, StorageError> {
        if self.killed {
            return Err(StorageError::Killed);
        }
        if self.plan.draw(&[StoreFault::OpenFail]) == Some(StoreFault::OpenFail) {
            return Err(StorageError::Failed("list"));
        }
        self.inner.list()
    }

    fn read(&mut self, name: &str) -> Result<Vec<u8>, StorageError> {
        if self.killed {
            return Err(StorageError::Killed);
        }
        if self.plan.draw(&[StoreFault::OpenFail, StoreFault::SlowIo]) == Some(StoreFault::OpenFail)
        {
            return Err(StorageError::Failed("open"));
        }
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        if self.check_kill() {
            // The process dies mid-append: a seeded prefix of the data
            // is in the page cache / on the platter, the rest is gone.
            if !data.is_empty() {
                let cut = (self.plan.roll.rng.next_u64() as usize) % data.len();
                let _ = self.inner.append(name, &data[..cut]);
            }
            return Err(StorageError::Killed);
        }
        match self.plan.draw(&[
            StoreFault::Torn,
            StoreFault::BitRot,
            StoreFault::NoSpace,
            StoreFault::SlowIo,
        ]) {
            Some(StoreFault::Torn) => {
                let written = if data.is_empty() {
                    0
                } else {
                    (self.plan.roll.rng.next_u64() as usize) % data.len()
                };
                self.inner.append(name, &data[..written])?;
                Err(StorageError::Torn { written })
            }
            Some(StoreFault::NoSpace) => {
                let written = if data.is_empty() {
                    0
                } else {
                    (self.plan.roll.rng.next_u64() as usize) % data.len()
                };
                self.inner.append(name, &data[..written])?;
                Err(StorageError::NoSpace { written })
            }
            Some(StoreFault::BitRot) => {
                // The write "succeeds"; one bit is silently wrong on
                // the medium. Only a checksum can catch this later.
                let mut rotted = data.to_vec();
                if !rotted.is_empty() {
                    let at = (self.plan.roll.rng.next_u64() as usize) % rotted.len();
                    let bit = (self.plan.roll.rng.next_u64() % 8) as u8;
                    rotted[at] ^= 1 << bit;
                }
                self.inner.append(name, &rotted)
            }
            _ => self.inner.append(name, data),
        }
    }

    fn sync(&mut self, name: &str) -> Result<(), StorageError> {
        if self.check_kill() {
            return Err(StorageError::Killed);
        }
        // Syncs only draw SlowIo — an fsync that lies about durability
        // is not a failure mode a store can defend against.
        let _ = self.plan.draw(&[StoreFault::SlowIo]);
        self.inner.sync(name)
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StorageError> {
        if self.check_kill() {
            return Err(StorageError::Killed);
        }
        if self
            .plan
            .draw(&[StoreFault::RenameFail, StoreFault::SlowIo])
            == Some(StoreFault::RenameFail)
        {
            return Err(StorageError::Failed("rename"));
        }
        self.inner.rename(from, to)
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        if self.check_kill() {
            return Err(StorageError::Killed);
        }
        if self.plan.draw(&[StoreFault::OpenFail]) == Some(StoreFault::OpenFail) {
            return Err(StorageError::Failed("remove"));
        }
        self.inner.remove(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn run_schedule(plan: StoreFaultPlan) -> (Vec<Result<(), StorageError>>, u64) {
        let mut s = FaultyStorage::new(MemStorage::new(), plan);
        let mut results = Vec::new();
        for i in 0..200u32 {
            results.push(s.append("f", &i.to_le_bytes()));
        }
        (results, s.plan().injected())
    }

    #[test]
    fn same_seed_same_schedule() {
        let (a, fa) = run_schedule(StoreFaultPlan::hostile(42));
        let (b, fb) = run_schedule(StoreFaultPlan::hostile(42));
        assert_eq!(a, b);
        assert_eq!(fa, fb);
        assert!(fa > 0, "hostile plan injects something in 200 ops");
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let (results, injected) = run_schedule(StoreFaultPlan::quiet());
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(injected, 0);
    }

    #[test]
    fn torn_appends_leave_a_prefix() {
        let plan = StoreFaultPlan::focused(7, StoreFault::Torn, 1000);
        let mut s = FaultyStorage::new(MemStorage::new(), plan);
        let err = s.append("f", b"abcdef").unwrap_err();
        let StorageError::Torn { written } = err else {
            panic!("expected torn, got {err:?}");
        };
        assert!(written < 6);
        assert_eq!(s.inner_mut().read("f").unwrap_or_default().len(), written);
    }

    #[test]
    fn bit_rot_persists_silently() {
        let plan = StoreFaultPlan::focused(9, StoreFault::BitRot, 1000);
        let mut s = FaultyStorage::new(MemStorage::new(), plan);
        s.append("f", b"immaculate").unwrap();
        let stored = s.inner_mut().read("f").unwrap();
        assert_eq!(stored.len(), b"immaculate".len());
        assert_ne!(stored, b"immaculate");
        // Exactly one bit differs.
        let flipped: u32 = stored
            .iter()
            .zip(b"immaculate")
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn kill_point_is_terminal() {
        let plan = StoreFaultPlan::quiet().with_kill_after(2);
        let mut s = FaultyStorage::new(MemStorage::new(), plan);
        assert!(s.append("f", b"one").is_ok());
        assert!(s.sync("f").is_ok());
        assert_eq!(s.append("f", b"three").unwrap_err(), StorageError::Killed);
        assert!(s.killed());
        assert_eq!(s.sync("f").unwrap_err(), StorageError::Killed);
        assert_eq!(s.read("f").unwrap_err(), StorageError::Killed);
        // The mid-append kill left at most a prefix behind.
        let mut disk = s.into_inner();
        let data = disk.read("f").unwrap();
        assert!(data.len() >= 3 && data.len() < 3 + 5);
        assert!(b"onethree".starts_with(data.as_slice()));
    }

    #[test]
    fn max_faults_bounds_injection() {
        let plan = StoreFaultPlan::hostile(3).with_max_faults(2);
        let (_, injected) = run_schedule(plan);
        assert!(injected <= 2);
    }

    #[test]
    fn rename_fail_leaves_namespace_unchanged() {
        let plan = StoreFaultPlan::focused(5, StoreFault::RenameFail, 1000);
        let mut s = FaultyStorage::new(MemStorage::new(), plan);
        s.append("tmp", b"x").unwrap();
        assert_eq!(
            s.rename("tmp", "target").unwrap_err(),
            StorageError::Failed("rename")
        );
        assert_eq!(s.inner_mut().read("tmp").unwrap(), b"x");
        assert!(s.inner_mut().read("target").is_err());
    }
}
