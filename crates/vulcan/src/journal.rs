//! The write-ahead edit journal: crash-consistent binary edits.
//!
//! A stop-the-world edit that dies mid-patch would leave the image with
//! some procedures on the new instrumentation and some on the old — the
//! one state the paper's transparency claim (§3.2) can never tolerate.
//! [`EditSession::commit_journaled`] closes that window with standard
//! write-ahead logging:
//!
//! 1. the complete edit — staged injections, removals, mode, and the
//!    *target* epoch counters — is recorded in the [`EditJournal`]
//!    **before** the image is touched;
//! 2. the edit is applied from the journal entry in a deterministic
//!    order (counter bump, then clears/removals, then injections sorted
//!    by pc);
//! 3. the journal entry is erased only after the last patch landed.
//!
//! A crash before step 1 loses nothing (the image was never touched); a
//! crash inside step 2 leaves a pending entry whose idempotent
//! roll-forward ([`EditJournal::recover`]) completes the edit exactly;
//! a crash between 2 and 3 replays a fully-applied edit, which the
//! overwrite-idempotent replay turns into a no-op. In every case the
//! recovered image is byte-for-byte the committed image — never a
//! half-patched hybrid.
//!
//! A *poisoned* session never reaches step 1: its rollback happens once,
//! at commit time, with nothing journaled — so a crash fault landing on
//! an already-failed edit cannot trigger a second rollback on recovery.

use hds_trace::Pc;

use crate::image::{EditError, EditReport, EditSession, Image};

/// One journaled edit: everything needed to replay the commit from
/// scratch, recorded before the image is touched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalEntry<T> {
    /// `true` for replace-mode edits ([`Image::edit`]): the commit
    /// describes the complete new instrumentation and every previous
    /// patch is dropped first.
    pub replace: bool,
    /// Staged injections, sorted by pc — the deterministic apply order.
    pub staged: Vec<(Pc, T)>,
    /// Staged removals (patch mode), sorted and deduplicated.
    pub removals: Vec<Pc>,
    /// The image epoch after the edit completes.
    pub epoch_target: u64,
    /// The image's committed-edit count after the edit completes.
    pub total_edits_target: u64,
}

/// The write-ahead journal guarding an image's edits. At most one entry
/// is pending at a time (edits are stop-the-world, so they never
/// overlap); a pending entry means the last commit may have died
/// mid-apply and [`EditJournal::recover`] must run before the image is
/// trusted.
#[derive(Clone, Debug, Default)]
pub struct EditJournal<T> {
    pending: Option<JournalEntry<T>>,
}

impl<T> EditJournal<T> {
    /// An empty journal (no edit in flight).
    #[must_use]
    pub fn new() -> Self {
        EditJournal { pending: None }
    }

    /// Is an edit recorded but not yet known to have fully applied?
    #[must_use]
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// The pending entry, if any.
    #[must_use]
    pub fn pending(&self) -> Option<&JournalEntry<T>> {
        self.pending.as_ref()
    }
}

impl<T: Clone> EditJournal<T> {
    /// Rolls the pending edit forward to completion against `image` and
    /// clears the journal. Returns `true` when a pending entry was
    /// replayed, `false` when the journal was empty (nothing to do).
    ///
    /// Replay is *idempotent*: counters are set to their recorded
    /// targets (not incremented), removals of already-removed pcs are
    /// no-ops, and injections overwrite with the journaled payload — so
    /// replaying a torn apply, a fully-applied-but-uncleared commit, or
    /// the same entry twice all land on the identical committed image.
    pub fn recover(&mut self, image: &mut Image<T>) -> bool {
        let Some(entry) = self.pending.take() else {
            return false;
        };
        image.apply(&entry, None);
        true
    }
}

impl<T: Clone> EditSession<'_, T> {
    /// Commits through the write-ahead `journal`, optionally tearing the
    /// apply to model a crash mid-edit.
    ///
    /// * `Ok(Some(report))` — the edit fully applied and the journal was
    ///   cleared; identical effect (and report) to [`EditSession::commit`].
    /// * `Ok(None)` — the apply *tore* after `tear_after` injections
    ///   landed (counters bumped, clears/removals done, a prefix of the
    ///   injections applied). The journal entry stays pending; the image
    ///   must not be trusted until [`EditJournal::recover`] runs.
    /// * `Err(e)` — the session was poisoned: the image was never
    ///   touched and **nothing was journaled**. This is the same single
    ///   atomic rollback as [`EditSession::commit`]; a crash fault on
    ///   top of a failed edit cannot roll back a second time on
    ///   recovery, because there is no journal entry to replay.
    ///
    /// `tear_after: Some(k)` dies after `k` injections; `k >=` the
    /// injection count models dying *after* the last patch but *before*
    /// the journal erase (recovery then replays a complete edit).
    ///
    /// # Errors
    ///
    /// The first error that poisoned the session, exactly as
    /// [`EditSession::commit`].
    pub fn commit_journaled(
        self,
        journal: &mut EditJournal<T>,
        tear_after: Option<usize>,
    ) -> Result<Option<EditReport>, EditError> {
        // Step 1: write-ahead — the journal records the full edit and
        // its target counters before any image mutation. A poisoned
        // session fails here: atomic rollback, nothing journaled.
        let (image, entry) = self.into_entry()?;
        let entry = journal.pending.insert(entry);
        // Step 2: apply *from the journal entry* in its deterministic
        // order, so a torn apply is always a prefix of the replay.
        let report = image.apply(entry, tear_after);
        if tear_after.is_some() {
            return Ok(None); // died mid-apply, or after the last patch but before the erase
        }
        // Step 3: the edit is fully applied — erase the journal entry.
        journal.pending = None;
        Ok(Some(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProcId, Procedure};

    fn image() -> Image<&'static str> {
        Image::new(vec![
            Procedure::new("alpha", vec![Pc(0x10), Pc(0x14)]),
            Procedure::new("beta", vec![Pc(0x20)]),
            Procedure::new("gamma", vec![Pc(0x30), Pc(0x34), Pc(0x38)]),
        ])
    }

    fn digest(img: &Image<&'static str>) -> u64 {
        img.digest_with(|s| s.len() as u64 ^ ((s.as_bytes()[0] as u64) << 8))
    }

    fn preinstall(img: &mut Image<&'static str>) {
        let mut edit = img.edit();
        edit.inject(Pc(0x10), "old-a").unwrap();
        edit.inject(Pc(0x20), "old-b").unwrap();
        edit.commit().unwrap();
    }

    /// Reference: the image a successful plain commit of the "second
    /// install" produces, starting from the preinstalled state.
    fn committed_reference() -> (Image<&'static str>, EditReport) {
        let mut img = image();
        preinstall(&mut img);
        let mut edit = img.edit();
        edit.inject(Pc(0x14), "new-1").unwrap();
        edit.inject(Pc(0x30), "new-2").unwrap();
        edit.inject(Pc(0x34), "new-3").unwrap();
        let report = edit.commit().unwrap();
        (img, report)
    }

    #[test]
    fn journaled_commit_matches_plain_commit() {
        let (reference, ref_report) = committed_reference();
        let mut img = image();
        preinstall(&mut img);
        let mut journal = EditJournal::new();
        let mut edit = img.edit();
        edit.inject(Pc(0x14), "new-1").unwrap();
        edit.inject(Pc(0x30), "new-2").unwrap();
        edit.inject(Pc(0x34), "new-3").unwrap();
        let report = edit
            .commit_journaled(&mut journal, None)
            .unwrap()
            .expect("untorn commit completes");
        assert_eq!(report, ref_report);
        assert!(!journal.has_pending());
        assert_eq!(digest(&img), digest(&reference));
    }

    /// The headline property: tearing the apply at *every* possible
    /// point, then replaying the journal, reconstructs exactly the image
    /// a crash-free commit produces — for replace mode.
    #[test]
    fn torn_replace_commit_replays_to_committed_image() {
        let (reference, _) = committed_reference();
        for tear in 0..=3usize {
            let mut img = image();
            preinstall(&mut img);
            let mut journal = EditJournal::new();
            let mut edit = img.edit();
            edit.inject(Pc(0x14), "new-1").unwrap();
            edit.inject(Pc(0x30), "new-2").unwrap();
            edit.inject(Pc(0x34), "new-3").unwrap();
            let out = edit.commit_journaled(&mut journal, Some(tear)).unwrap();
            assert!(out.is_none(), "tear {tear}: apply must report torn");
            assert!(journal.has_pending(), "tear {tear}: entry must persist");
            assert!(journal.recover(&mut img), "tear {tear}: replay runs");
            assert!(!journal.has_pending());
            assert_eq!(
                digest(&img),
                digest(&reference),
                "tear {tear}: replayed image differs from committed image"
            );
        }
    }

    /// Same property for patch mode (removals + layered injections).
    #[test]
    fn torn_partial_commit_replays_to_committed_image() {
        let reference = {
            let mut img = image();
            preinstall(&mut img);
            let mut patch = img.edit_partial();
            patch.remove(Pc(0x20)).unwrap();
            patch.inject(Pc(0x30), "layer").unwrap();
            patch.inject(Pc(0x34), "layer2").unwrap();
            patch.commit().unwrap();
            img
        };
        for tear in 0..=2usize {
            let mut img = image();
            preinstall(&mut img);
            let mut journal = EditJournal::new();
            let mut patch = img.edit_partial();
            patch.remove(Pc(0x20)).unwrap();
            patch.inject(Pc(0x30), "layer").unwrap();
            patch.inject(Pc(0x34), "layer2").unwrap();
            assert!(patch
                .commit_journaled(&mut journal, Some(tear))
                .unwrap()
                .is_none());
            assert!(journal.recover(&mut img));
            assert_eq!(
                digest(&img),
                digest(&reference),
                "tear {tear}: partial replay diverged"
            );
            // The surgical property survives recovery: alpha's copy kept
            // its original since_epoch, so old activations still see it.
            assert_eq!(img.injected_at(Pc(0x10), 1), Some(&"old-a"));
        }
    }

    /// A poisoned session journals nothing: the rollback happens exactly
    /// once, at commit time, and recovery finds nothing to replay (the
    /// satellite audit — crash-on-failed-edit must not roll back twice).
    #[test]
    fn poisoned_session_never_journals() {
        let mut img = image();
        preinstall(&mut img);
        let before = digest(&img);
        let mut journal = EditJournal::new();
        let mut edit = img.edit();
        edit.inject(Pc(0x14), "x").unwrap();
        edit.fail(EditError::Induced(Pc(0x14)));
        assert_eq!(
            edit.commit_journaled(&mut journal, Some(1)),
            Err(EditError::Induced(Pc(0x14)))
        );
        assert!(!journal.has_pending(), "poisoned commit must not journal");
        assert!(!journal.recover(&mut img), "nothing to replay");
        assert_eq!(digest(&img), before, "rollback must be the only effect");
    }

    /// Dying after the last patch but before the journal erase: the
    /// replay re-applies a complete edit and must be a no-op.
    #[test]
    fn replay_of_fully_applied_commit_is_a_no_op() {
        let (reference, _) = committed_reference();
        let mut img = image();
        preinstall(&mut img);
        let mut journal = EditJournal::new();
        let mut edit = img.edit();
        edit.inject(Pc(0x14), "new-1").unwrap();
        edit.inject(Pc(0x30), "new-2").unwrap();
        edit.inject(Pc(0x34), "new-3").unwrap();
        // Tear point past the last injection: everything applied, entry
        // still pending.
        assert!(edit
            .commit_journaled(&mut journal, Some(99))
            .unwrap()
            .is_none());
        assert_eq!(digest(&img), digest(&reference));
        assert!(journal.recover(&mut img));
        assert_eq!(digest(&img), digest(&reference), "replay must be no-op");
    }

    #[test]
    fn recover_on_empty_journal_is_a_no_op() {
        let mut img = image();
        preinstall(&mut img);
        let before = digest(&img);
        let mut journal: EditJournal<&'static str> = EditJournal::new();
        assert!(!journal.has_pending());
        assert!(journal.pending().is_none());
        assert!(!journal.recover(&mut img));
        assert_eq!(digest(&img), before);
    }

    #[test]
    fn torn_image_is_visibly_mid_edit_until_recovered() {
        let mut img = image();
        preinstall(&mut img);
        let mut journal = EditJournal::new();
        let mut edit = img.edit();
        edit.inject(Pc(0x14), "new-1").unwrap();
        edit.inject(Pc(0x30), "new-2").unwrap();
        assert!(edit
            .commit_journaled(&mut journal, Some(1))
            .unwrap()
            .is_none());
        // Counters bumped, old patches dropped, only the first injection
        // landed: the classic half-patched image the journal exists for.
        assert_eq!(img.epoch(), 2);
        assert_eq!(img.injected_at(Pc(0x14), 2), Some(&"new-1"));
        assert_eq!(img.injected_at(Pc(0x30), 2), None);
        assert_eq!(img.injected_at(Pc(0x20), 2), None, "old patch dropped");
        assert!(journal.recover(&mut img));
        assert_eq!(img.injected_at(Pc(0x30), 2), Some(&"new-2"));
    }

    #[test]
    fn export_restore_round_trips_through_state() {
        let (reference, _) = committed_reference();
        let state = reference.export_state();
        assert_eq!(state.epoch, 2);
        assert_eq!(state.total_edits, 2);
        assert!(state.copies.windows(2).all(|w| w[0].proc < w[1].proc));
        let mut fresh = image();
        fresh.restore_state(state.clone());
        assert_eq!(digest(&fresh), digest(&reference));
        assert_eq!(fresh.export_state(), state);
        assert_eq!(fresh.injected_at(Pc(0x14), 2), Some(&"new-1"));
        // Restore also *overwrites*: a dirty image lands on the state.
        let mut dirty = image();
        let mut e = dirty.edit();
        e.inject(Pc(0x38), "junk").unwrap();
        e.commit().unwrap();
        dirty.restore_state(state);
        assert_eq!(digest(&dirty), digest(&reference));
        assert!(!dirty.is_patched(ProcId(2)) || dirty.injected_at(Pc(0x38), 2).is_none());
    }
}
