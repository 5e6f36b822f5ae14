//! The editable program image: procedure copies, check injection, entry
//! patching, and de-optimization.

use std::collections::BTreeMap;
use std::fmt;

use hds_trace::Pc;

use crate::journal::JournalEntry;
use crate::program::{ProcId, Procedure};

/// Errors from an [`EditSession`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditError {
    /// The pc does not belong to any procedure of the image.
    UnknownPc(Pc),
    /// A payload was already injected at this pc in this session.
    AlreadyInjected(Pc),
    /// A removal targeted a pc that has no injected payload.
    NotInjected(Pc),
    /// An induced editor failure at this pc (fault injection / transient
    /// binary-editor error). The session is poisoned and its commit
    /// rolls back.
    Induced(Pc),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::UnknownPc(pc) => write!(f, "{pc} does not belong to the image"),
            EditError::AlreadyInjected(pc) => write!(f, "{pc} already has injected code"),
            EditError::NotInjected(pc) => write!(f, "{pc} has no injected code to remove"),
            EditError::Induced(pc) => write!(f, "induced editor failure at {pc}"),
        }
    }
}

impl std::error::Error for EditError {}

/// Statistics of one committed edit session — the Table 2 inputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EditReport {
    /// Procedures copied and patched in this session.
    pub procedures_modified: usize,
    /// Total pcs that received injected code.
    pub pcs_injected: usize,
    /// The image epoch after the edit (fresh activations from this epoch
    /// on execute the patched copies).
    pub epoch: u64,
}

/// One patched procedure copy: the injected payloads per pc, and the
/// epoch at which the copy became live.
#[derive(Clone, Debug)]
struct Copy<T> {
    checks: BTreeMap<Pc, T>,
    since_epoch: u64,
}

/// A 4,096-bit superset filter of the injected pcs: every live injected
/// pc has its bit set, so a clear bit answers "no check here" without a
/// map lookup. A set bit — possibly another pc's — only falls through to
/// the exact lookup, so crafted pcs can slow it no further than that.
#[derive(Clone, Debug)]
struct PcFilter([u64; 64]);

impl PcFilter {
    const EMPTY: PcFilter = PcFilter([0; 64]);

    /// Word and bit of `pc`: the top 12 bits of a Fibonacci hash.
    fn slot(pc: Pc) -> (usize, u64) {
        let h = u64::from(pc.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52;
        ((h >> 6) as usize, 1 << (h & 63))
    }

    fn insert(&mut self, pc: Pc) {
        let (word, bit) = Self::slot(pc);
        self.0[word] |= bit;
    }

    fn may_contain(&self, pc: Pc) -> bool {
        let (word, bit) = Self::slot(pc);
        self.0[word] & bit != 0
    }
}

/// The patched state of one procedure, in canonical (sorted) order —
/// the unit of [`Image::export_state`] / [`Image::restore_state`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CopyState<T> {
    /// The patched procedure.
    pub proc: ProcId,
    /// Epoch at which the copy became live.
    pub since_epoch: u64,
    /// Injected payloads, sorted by pc.
    pub checks: Vec<(Pc, T)>,
}

/// The complete mutable state of an [`Image`] in canonical order:
/// epoch counters plus every live procedure copy. The static side
/// (procedures, pc ownership) is not part of the state — a restored
/// image must be constructed over the same procedures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImageState<T> {
    /// Current image epoch.
    pub epoch: u64,
    /// Committed edit sessions so far.
    pub total_edits: u64,
    /// De-optimizations that removed patches so far.
    pub total_deopts: u64,
    /// Live procedure copies, sorted by procedure id.
    pub copies: Vec<CopyState<T>>,
}

/// The editable program image.
///
/// `T` is the payload type injected at instrumented pcs (the optimizer
/// injects DFSM check chains). The image starts unpatched; an
/// [`EditSession`] models dynamic Vulcan's stop-the-world binary edit.
#[derive(Clone, Debug)]
pub struct Image<T> {
    procs: Vec<Procedure>,
    /// Every pc of every procedure with its owner, sorted by pc.
    pc_to_proc: Vec<(Pc, ProcId)>,
    copies: BTreeMap<ProcId, Copy<T>>,
    /// Covers every pc injected in `copies`; maintained only by
    /// [`Image::apply`], [`Image::deoptimize`] and
    /// [`Image::restore_state`].
    injected: PcFilter,
    epoch: u64,
    total_edits: u64,
    total_deopts: u64,
}

impl<T> Image<T> {
    /// Creates an unpatched image from its procedures.
    ///
    /// # Panics
    ///
    /// Panics if two procedures claim the same pc.
    #[must_use]
    pub fn new(procs: Vec<Procedure>) -> Self {
        let mut pc_to_proc: Vec<(Pc, ProcId)> = procs
            .iter()
            .enumerate()
            .flat_map(|(i, p)| p.pcs().iter().map(move |&pc| (pc, ProcId(i as u32))))
            .collect();
        pc_to_proc.sort_unstable();
        if let Some(w) = pc_to_proc.windows(2).find(|w| w[0].0 == w[1].0) {
            panic!("{} belongs to two procedures", w[0].0);
        }
        Image {
            procs,
            pc_to_proc,
            copies: BTreeMap::new(),
            injected: PcFilter::EMPTY,
            epoch: 0,
            total_edits: 0,
            total_deopts: 0,
        }
    }

    /// The procedures of the image.
    #[must_use]
    pub fn procedures(&self) -> &[Procedure] {
        &self.procs
    }

    /// Resolves the procedure owning `pc`.
    #[must_use]
    pub fn proc_of(&self, pc: Pc) -> Option<ProcId> {
        let i = self
            .pc_to_proc
            .binary_search_by_key(&pc, |&(p, _)| p)
            .ok()?;
        Some(self.pc_to_proc[i].1)
    }

    /// The current image epoch. Bumped by every committed edit and every
    /// de-optimization; activations record the epoch they entered at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Is the procedure's entry currently patched with a jump to a copy?
    #[must_use]
    pub fn is_patched(&self, proc: ProcId) -> bool {
        self.copies.contains_key(&proc)
    }

    /// The payload injected at `pc`, as seen by an activation that
    /// entered its procedure at `frame_epoch`.
    ///
    /// Returns `None` when the owning procedure is unpatched, or when the
    /// activation predates the patch (a *stale* activation: its return
    /// address targets the original code, §3.2).
    #[must_use]
    pub fn injected_at(&self, pc: Pc, frame_epoch: u64) -> Option<&T> {
        if !self.injected.may_contain(pc) {
            return None; // the common case: no check at this pc
        }
        let copy = self.copies.get(&self.proc_of(pc)?)?;
        if frame_epoch < copy.since_epoch {
            return None; // stale activation runs the original code
        }
        copy.checks.get(&pc)
    }

    /// Begins a stop-the-world edit session ("Dynamic Vulcan stops all
    /// running program threads while binary modifications are in
    /// progress"). The commit *replaces* the complete instrumentation:
    /// patches of procedures not touched by the session are removed.
    pub fn edit(&mut self) -> EditSession<'_, T> {
        EditSession {
            staged: BTreeMap::new(),
            removals: Vec::new(),
            poisoned: None,
            replace: true,
            image: self,
        }
    }

    /// Begins a *patch-mode* edit session for surgical, partial changes:
    /// staged injections are layered onto the live instrumentation and
    /// staged removals delete individual payloads, while every untouched
    /// procedure copy survives **with its original `since_epoch`** — so
    /// activations already running a surviving copy keep executing its
    /// checks. This is the partial-deoptimization primitive.
    pub fn edit_partial(&mut self) -> EditSession<'_, T> {
        EditSession {
            staged: BTreeMap::new(),
            removals: Vec::new(),
            poisoned: None,
            replace: false,
            image: self,
        }
    }

    /// The payload currently injected at `pc` in the live copy of its
    /// procedure, regardless of activation epoch.
    fn live_payload(&self, pc: Pc) -> Option<&T> {
        let proc = self.proc_of(pc)?;
        self.copies.get(&proc)?.checks.get(&pc)
    }

    /// Removes every entry jump, reverting all procedures to their
    /// original code ("when the optimizer wants to deoptimize later, it
    /// need only remove those jumps"). Returns how many procedures were
    /// reverted.
    pub fn deoptimize(&mut self) -> usize {
        let n = self.copies.len();
        self.copies.clear();
        self.injected = PcFilter::EMPTY;
        if n > 0 {
            self.epoch += 1;
            self.total_deopts += 1;
        }
        n
    }

    /// Number of committed edit sessions.
    #[must_use]
    pub fn total_edits(&self) -> u64 {
        self.total_edits
    }

    /// Number of de-optimizations that actually removed patches.
    #[must_use]
    pub fn total_deopts(&self) -> u64 {
        self.total_deopts
    }

    /// The set of currently patched procedures.
    #[must_use]
    pub fn patched_procs(&self) -> Vec<ProcId> {
        self.copies.keys().copied().collect()
    }
}

impl<T: Clone> Image<T> {
    /// Exports the image's mutable state in canonical (sorted) order —
    /// the checkpointing primitive. The static procedure table is not
    /// included; restore into an image built over the same procedures.
    #[must_use]
    pub fn export_state(&self) -> ImageState<T> {
        ImageState {
            epoch: self.epoch,
            total_edits: self.total_edits,
            total_deopts: self.total_deopts,
            copies: self
                .copies
                .iter()
                .map(|(&proc, copy)| CopyState {
                    proc,
                    since_epoch: copy.since_epoch,
                    checks: copy
                        .checks
                        .iter()
                        .map(|(&pc, payload)| (pc, payload.clone()))
                        .collect(),
                })
                .collect(),
        }
    }

    /// Restores mutable state previously produced by
    /// [`Image::export_state`], replacing all live patches and epoch
    /// counters. The procedures the image was constructed over are
    /// untouched.
    pub fn restore_state(&mut self, state: ImageState<T>) {
        self.epoch = state.epoch;
        self.total_edits = state.total_edits;
        self.total_deopts = state.total_deopts;
        self.injected = PcFilter::EMPTY;
        for &(pc, _) in state.copies.iter().flat_map(|c| &c.checks) {
            self.injected.insert(pc);
        }
        self.copies = state
            .copies
            .into_iter()
            .map(|c| {
                (
                    c.proc,
                    Copy {
                        checks: c.checks.into_iter().collect(),
                        since_epoch: c.since_epoch,
                    },
                )
            })
            .collect();
    }

    /// A deterministic digest of the image's mutable state, hashing
    /// each payload through `f`. Two images digest equal iff their
    /// epochs, edit/deopt counters, and live patches (procedure,
    /// since-epoch, pc, payload hash) all agree — the chaos suite's
    /// bit-identical-image assertion.
    #[must_use]
    pub fn digest_with(&self, f: impl Fn(&T) -> u64) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.epoch.hash(&mut h);
        self.total_edits.hash(&mut h);
        self.total_deopts.hash(&mut h);
        for (proc, copy) in &self.copies {
            proc.0.hash(&mut h);
            copy.since_epoch.hash(&mut h);
            for (pc, payload) in &copy.checks {
                pc.hash(&mut h);
                f(payload).hash(&mut h);
            }
        }
        h.finish()
    }

    /// Applies `entry`, the one edit-apply path of plain commits,
    /// journaled commits and journal replay: sets the counters to their
    /// targets, drops every patch (replace mode) or the staged removals
    /// (patch mode), then lands the staged injections in pc order. With
    /// `tear: Some(k)` only the first `k` injections land, modelling a
    /// crash mid-edit. Idempotent: the counters are set, not bumped,
    /// removing a removed pc does nothing and injections overwrite, so
    /// applying a torn or complete entry again lands on the committed
    /// image.
    pub(crate) fn apply(&mut self, entry: &JournalEntry<T>, tear: Option<usize>) -> EditReport {
        self.epoch = entry.epoch_target;
        self.total_edits = entry.total_edits_target;
        let mut touched: Vec<ProcId> = Vec::new();
        if entry.replace {
            self.copies.clear();
            self.injected = PcFilter::EMPTY;
        } else {
            for &pc in &entry.removals {
                let Some(proc) = self.proc_of(pc) else {
                    continue;
                };
                let Some(copy) = self.copies.get_mut(&proc) else {
                    continue;
                };
                copy.checks.remove(&pc);
                touched.push(proc);
                if copy.checks.is_empty() {
                    self.copies.remove(&proc); // entry jump removed: original code
                }
            }
        }
        let mut pcs_injected = 0usize;
        for (pc, payload) in entry.staged.iter().take(tear.unwrap_or(usize::MAX)) {
            // Validated at staging; skipping an (impossible) unknown pc
            // beats panicking inside a stop-the-world edit.
            let Some(proc) = self.proc_of(*pc) else {
                continue;
            };
            let copy = self.copies.entry(proc).or_insert_with(|| Copy {
                checks: BTreeMap::new(),
                since_epoch: entry.epoch_target,
            });
            copy.checks.insert(*pc, payload.clone());
            self.injected.insert(*pc);
            touched.push(proc);
            pcs_injected += 1;
        }
        let procedures_modified = if entry.replace {
            self.copies.len()
        } else {
            touched.sort_unstable();
            touched.dedup();
            touched.len()
        };
        EditReport {
            procedures_modified,
            pcs_injected,
            epoch: entry.epoch_target,
        }
    }
}

/// A stop-the-world edit: stage injections (and, in patch mode,
/// removals), then [`EditSession::commit`] to apply everything
/// atomically.
///
/// The session is *transactional*: the first staging error poisons it,
/// and a poisoned commit performs **no** image mutation — no epoch
/// bump, no copy touched. A half-failed edit therefore rolls the whole
/// session back, leaving the pre-edit image intact (threads resume on
/// exactly the code they were stopped on).
#[derive(Debug)]
pub struct EditSession<'a, T> {
    staged: BTreeMap<Pc, T>,
    removals: Vec<Pc>,
    poisoned: Option<EditError>,
    /// `true` for [`Image::edit`] (commit describes the complete new
    /// instrumentation), `false` for [`Image::edit_partial`].
    replace: bool,
    image: &'a mut Image<T>,
}

impl<'a, T> EditSession<'a, T> {
    /// Stages a payload for injection at `pc`.
    ///
    /// # Errors
    ///
    /// * [`EditError::UnknownPc`] if `pc` belongs to no procedure;
    /// * [`EditError::AlreadyInjected`] if this session already staged a
    ///   payload at `pc`, or (in patch mode) the live image already has
    ///   one there.
    ///
    /// Any error poisons the session: its commit will roll back.
    pub fn inject(&mut self, pc: Pc, payload: T) -> Result<(), EditError> {
        if self.image.proc_of(pc).is_none() {
            return Err(self.poison(EditError::UnknownPc(pc)));
        }
        if self.staged.contains_key(&pc) || (!self.replace && self.image.live_payload(pc).is_some())
        {
            return Err(self.poison(EditError::AlreadyInjected(pc)));
        }
        self.staged.insert(pc, payload);
        Ok(())
    }

    /// Stages the removal of the payload injected at `pc` (patch mode;
    /// in replace mode the commit discards old patches anyway, so a
    /// removal of a live pc is accepted and redundant).
    ///
    /// # Errors
    ///
    /// * [`EditError::UnknownPc`] if `pc` belongs to no procedure;
    /// * [`EditError::NotInjected`] if the live image has no payload at
    ///   `pc`.
    ///
    /// Any error poisons the session: its commit will roll back.
    pub fn remove(&mut self, pc: Pc) -> Result<(), EditError> {
        if self.image.proc_of(pc).is_none() {
            return Err(self.poison(EditError::UnknownPc(pc)));
        }
        if self.image.live_payload(pc).is_none() {
            return Err(self.poison(EditError::NotInjected(pc)));
        }
        self.removals.push(pc);
        Ok(())
    }

    /// Poisons the session with an externally induced failure (the
    /// fault-injection layer models a binary editor dying mid-edit).
    /// The commit will roll back with this error.
    pub fn fail(&mut self, err: EditError) {
        let _ = self.poison(err);
    }

    /// The error that poisoned this session, if any.
    #[must_use]
    pub fn poisoned(&self) -> Option<&EditError> {
        self.poisoned.as_ref()
    }

    fn poison(&mut self, err: EditError) -> EditError {
        if self.poisoned.is_none() {
            self.poisoned = Some(err.clone());
        }
        err
    }

    /// The journal entry this session commits, with the image it
    /// targets: staged injections in pc order, removals sorted and
    /// deduplicated, counters one edit past the image's.
    ///
    /// # Errors
    ///
    /// The error that poisoned the session; nothing is built.
    pub(crate) fn into_entry(self) -> Result<(&'a mut Image<T>, JournalEntry<T>), EditError> {
        if let Some(err) = self.poisoned {
            return Err(err);
        }
        let mut removals = self.removals;
        removals.sort_unstable();
        removals.dedup();
        let entry = JournalEntry {
            replace: self.replace,
            staged: self.staged.into_iter().collect(),
            removals,
            epoch_target: self.image.epoch + 1,
            total_edits_target: self.image.total_edits + 1,
        };
        Ok((self.image, entry))
    }

    /// Abandons the session without modifying the image.
    pub fn abort(self) {
        // Dropping the session discards the staged edits.
    }
}

impl<T: Clone> EditSession<'_, T> {
    /// Commits the staged edits atomically: bumps the epoch, copies
    /// every affected procedure, attaches the payloads, and patches the
    /// entries.
    ///
    /// In replace mode ([`Image::edit`]) patches of unaffected
    /// procedures are removed — the commit describes the complete new
    /// instrumentation (§1's deoptimize-before-reoptimize cycle). In
    /// patch mode ([`Image::edit_partial`]) staged removals delete
    /// individual payloads, a procedure copy with no payloads left is
    /// unpatched, and surviving copies keep their `since_epoch`.
    ///
    /// # Errors
    ///
    /// If the session was poisoned by a failed [`EditSession::inject`] /
    /// [`EditSession::remove`] or an induced [`EditSession::fail`], the
    /// first such error is returned and the image is **not** modified in
    /// any way (no epoch bump, all copies intact).
    pub fn commit(self) -> Result<EditReport, EditError> {
        let (image, entry) = self.into_entry()?; // poisoned: atomic rollback
        Ok(image.apply(&entry, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> Image<&'static str> {
        Image::new(vec![
            Procedure::new("alpha", vec![Pc(0x10), Pc(0x14)]),
            Procedure::new("beta", vec![Pc(0x20)]),
            Procedure::new("gamma", vec![Pc(0x30), Pc(0x34), Pc(0x38)]),
        ])
    }

    #[test]
    fn pc_ownership() {
        let img = image();
        assert_eq!(img.proc_of(Pc(0x14)), Some(ProcId(0)));
        assert_eq!(img.proc_of(Pc(0x30)), Some(ProcId(2)));
        assert_eq!(img.proc_of(Pc(0x99)), None);
        assert_eq!(img.procedures().len(), 3);
    }

    #[test]
    #[should_panic(expected = "belongs to two procedures")]
    fn duplicate_pcs_rejected() {
        let _: Image<()> = Image::new(vec![
            Procedure::new("a", vec![Pc(1)]),
            Procedure::new("b", vec![Pc(1)]),
        ]);
    }

    #[test]
    fn edit_injects_and_patches() {
        let mut img = image();
        let mut edit = img.edit();
        edit.inject(Pc(0x10), "c1").unwrap();
        edit.inject(Pc(0x14), "c2").unwrap();
        edit.inject(Pc(0x20), "c3").unwrap();
        let report = edit.commit().unwrap();
        assert_eq!(report.procedures_modified, 2);
        assert_eq!(report.pcs_injected, 3);
        assert_eq!(report.epoch, 1);
        assert!(img.is_patched(ProcId(0)));
        assert!(img.is_patched(ProcId(1)));
        assert!(!img.is_patched(ProcId(2)));
        assert_eq!(img.patched_procs(), vec![ProcId(0), ProcId(1)]);
        assert_eq!(img.injected_at(Pc(0x10), 1), Some(&"c1"));
        // Un-injected pc of a patched procedure: no payload.
        assert_eq!(img.injected_at(Pc(0x30), 1), None);
    }

    #[test]
    fn stale_activations_see_original_code() {
        let mut img = image();
        let mut edit = img.edit();
        edit.inject(Pc(0x10), "chk").unwrap();
        edit.commit().unwrap();
        // Frame entered before the patch (epoch 0): original code.
        assert_eq!(img.injected_at(Pc(0x10), 0), None);
        // Frame entered at/after the patch epoch: instrumented copy.
        assert_eq!(img.injected_at(Pc(0x10), 1), Some(&"chk"));
        assert_eq!(img.injected_at(Pc(0x10), 5), Some(&"chk"));
    }

    #[test]
    fn deoptimize_removes_all_patches() {
        let mut img = image();
        let mut edit = img.edit();
        edit.inject(Pc(0x10), "chk").unwrap();
        edit.commit().unwrap();
        assert_eq!(img.deoptimize(), 1);
        assert!(!img.is_patched(ProcId(0)));
        assert_eq!(img.injected_at(Pc(0x10), img.epoch()), None);
        assert_eq!(img.epoch(), 2);
        // Deoptimizing an unpatched image is a no-op.
        assert_eq!(img.deoptimize(), 0);
        assert_eq!(img.epoch(), 2);
        assert_eq!(img.total_deopts(), 1);
    }

    #[test]
    fn recommit_replaces_previous_patches() {
        let mut img = image();
        let mut edit = img.edit();
        edit.inject(Pc(0x10), "old").unwrap();
        edit.commit().unwrap();
        let mut edit = img.edit();
        edit.inject(Pc(0x20), "new").unwrap();
        let report = edit.commit().unwrap();
        assert_eq!(report.procedures_modified, 1);
        // alpha's patch is gone, beta's is live.
        assert!(!img.is_patched(ProcId(0)));
        assert_eq!(img.injected_at(Pc(0x20), img.epoch()), Some(&"new"));
        assert_eq!(img.total_edits(), 2);
    }

    #[test]
    fn edit_errors() {
        let mut img = image();
        let mut edit = img.edit();
        assert_eq!(
            edit.inject(Pc(0x99), "x"),
            Err(EditError::UnknownPc(Pc(0x99)))
        );
        edit.inject(Pc(0x10), "x").unwrap();
        assert_eq!(
            edit.inject(Pc(0x10), "y"),
            Err(EditError::AlreadyInjected(Pc(0x10)))
        );
        edit.abort();
        assert_eq!(img.epoch(), 0);
        assert_eq!(img.total_edits(), 0);
    }

    #[test]
    fn error_display() {
        assert!(EditError::UnknownPc(Pc(0x7)).to_string().contains("0x7"));
        assert!(EditError::AlreadyInjected(Pc(0x7))
            .to_string()
            .contains("already"));
        assert!(EditError::NotInjected(Pc(0x7))
            .to_string()
            .contains("remove"));
        assert!(EditError::Induced(Pc(0x7)).to_string().contains("induced"));
    }

    /// Regression: a mid-session failure must not leave the image
    /// half-patched. Committing a poisoned session rolls back — the
    /// pre-edit instrumentation and epoch are intact.
    #[test]
    fn failed_injection_rolls_back_the_whole_session() {
        let mut img = image();
        let mut edit = img.edit();
        edit.inject(Pc(0x10), "keep").unwrap();
        edit.commit().unwrap();
        let epoch_before = img.epoch();

        let mut edit = img.edit();
        edit.inject(Pc(0x20), "half").unwrap();
        // Second injection fails mid-session...
        assert_eq!(
            edit.inject(Pc(0x99), "bad"),
            Err(EditError::UnknownPc(Pc(0x99)))
        );
        assert_eq!(edit.poisoned(), Some(&EditError::UnknownPc(Pc(0x99))));
        // ...and a further valid staging does not un-poison it.
        edit.inject(Pc(0x30), "late").unwrap();
        assert_eq!(edit.commit(), Err(EditError::UnknownPc(Pc(0x99))));

        // Pre-edit image fully intact: old payload live, nothing new.
        assert_eq!(img.epoch(), epoch_before);
        assert_eq!(img.injected_at(Pc(0x10), epoch_before), Some(&"keep"));
        assert_eq!(img.injected_at(Pc(0x20), epoch_before), None);
        assert_eq!(img.injected_at(Pc(0x30), epoch_before), None);
        assert_eq!(img.total_edits(), 1);
    }

    #[test]
    fn induced_failure_rolls_back() {
        let mut img = image();
        let mut edit = img.edit();
        edit.inject(Pc(0x10), "x").unwrap();
        edit.fail(EditError::Induced(Pc(0x10)));
        assert_eq!(edit.commit(), Err(EditError::Induced(Pc(0x10))));
        assert_eq!(img.epoch(), 0);
        assert!(!img.is_patched(ProcId(0)));
        assert_eq!(img.total_edits(), 0);
    }

    #[test]
    fn partial_edit_removes_one_pc_and_preserves_survivor_epoch() {
        let mut img = image();
        let mut edit = img.edit();
        edit.inject(Pc(0x10), "good").unwrap();
        edit.inject(Pc(0x20), "bad").unwrap();
        edit.commit().unwrap();
        let install_epoch = img.epoch();

        let mut patch = img.edit_partial();
        patch.remove(Pc(0x20)).unwrap();
        let report = patch.commit().unwrap();
        assert_eq!(report.procedures_modified, 1);
        assert_eq!(report.pcs_injected, 0);
        assert_eq!(report.epoch, install_epoch + 1);

        // beta's copy is empty → unpatched; alpha's survives...
        assert!(!img.is_patched(ProcId(1)));
        assert!(img.is_patched(ProcId(0)));
        // ...with its original since_epoch: an activation that entered
        // at the *install* epoch (before the partial deopt) still sees
        // the surviving check. This is the surgical property.
        assert_eq!(img.injected_at(Pc(0x10), install_epoch), Some(&"good"));
        assert_eq!(img.injected_at(Pc(0x20), img.epoch()), None);
    }

    #[test]
    fn partial_edit_errors_poison_and_roll_back() {
        let mut img = image();
        let mut edit = img.edit();
        edit.inject(Pc(0x10), "live").unwrap();
        edit.commit().unwrap();

        let mut patch = img.edit_partial();
        // Removing a never-injected pc fails...
        assert_eq!(
            patch.remove(Pc(0x30)),
            Err(EditError::NotInjected(Pc(0x30)))
        );
        // ...as does re-injecting over a live payload in patch mode.
        let mut patch = img.edit_partial();
        assert_eq!(
            patch.inject(Pc(0x10), "dup"),
            Err(EditError::AlreadyInjected(Pc(0x10)))
        );
        patch.remove(Pc(0x10)).unwrap();
        assert_eq!(patch.commit(), Err(EditError::AlreadyInjected(Pc(0x10))));
        // Rollback: the live payload survived both poisoned sessions.
        assert_eq!(img.injected_at(Pc(0x10), img.epoch()), Some(&"live"));
        assert_eq!(img.epoch(), 1);
    }

    /// The injected-pc filter covers every live injected pc after every
    /// kind of edit: replace and partial commits, a torn journaled commit
    /// and its recovery, de-optimization, and restore.
    #[test]
    fn filter_covers_every_live_injected_pc() {
        fn assert_covered(img: &Image<u32>) {
            for (&pc, _) in img.copies.values().flat_map(|c| &c.checks) {
                assert!(img.injected.may_contain(pc), "{pc} filtered out");
                assert!(img.injected_at(pc, u64::MAX).is_some(), "{pc} not found");
            }
        }
        let procs = (0..4u32)
            .map(|p| {
                Procedure::new(
                    format!("p{p}"),
                    (0..200).map(|i| Pc((p << 12) | (i * 4))).collect(),
                )
            })
            .collect();
        let mut img: Image<u32> = Image::new(procs);
        let pc = |i: u32| Pc(((i % 4) << 12) | ((i / 4 % 200) * 4));
        let mut edit = img.edit();
        for i in (0..400).step_by(3) {
            edit.inject(pc(i), i).unwrap();
        }
        edit.commit().unwrap();
        assert_covered(&img);

        let mut patch = img.edit_partial();
        for i in (0..400).step_by(6) {
            patch.remove(pc(i)).unwrap();
        }
        for i in (1..400).step_by(3) {
            patch.inject(pc(i), i).unwrap();
        }
        patch.commit().unwrap();
        assert_covered(&img);

        let mut journal = crate::EditJournal::new();
        let mut edit = img.edit();
        for i in 400..700 {
            edit.inject(pc(i), i).unwrap();
        }
        assert!(edit
            .commit_journaled(&mut journal, Some(100))
            .unwrap()
            .is_none());
        assert_covered(&img);
        assert!(journal.recover(&mut img));
        assert_covered(&img);
        let state = img.export_state();

        img.deoptimize();
        assert!((0..800).all(|i| !img.injected.may_contain(pc(i))));
        img.restore_state(state);
        assert_covered(&img);
        assert_eq!(
            img.copies.values().map(|c| c.checks.len()).sum::<usize>(),
            300
        );
    }

    #[test]
    fn partial_edit_can_layer_new_checks() {
        let mut img = image();
        let mut edit = img.edit();
        edit.inject(Pc(0x10), "a").unwrap();
        edit.commit().unwrap();
        let mut patch = img.edit_partial();
        patch.inject(Pc(0x30), "b").unwrap();
        let report = patch.commit().unwrap();
        assert_eq!(report.pcs_injected, 1);
        // Both live; alpha's copy kept since_epoch 1, gamma's starts at 2.
        assert_eq!(img.injected_at(Pc(0x10), 1), Some(&"a"));
        assert_eq!(img.injected_at(Pc(0x30), 1), None); // stale for gamma
        assert_eq!(img.injected_at(Pc(0x30), 2), Some(&"b"));
    }
}
