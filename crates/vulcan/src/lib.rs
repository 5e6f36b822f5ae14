//! Simulated binary image and dynamic binary editing — the reproduction's
//! stand-in for Vulcan \[32\].
//!
//! The paper's optimizer "uses dynamic Vulcan …, a binary editing tool
//! for the x86", to (§3.2):
//!
//! 1. stop all running program threads,
//! 2. for every procedure containing a pc to instrument: make a copy of
//!    the procedure, inject the code into the copy, and overwrite the
//!    first instruction of the original with a jump to the copy,
//! 3. restart the threads; de-optimization later "need only remove those
//!    jumps".
//!
//! Crucially, "return addresses on the stack still refer to the original
//! procedures. Hence, we will return to original procedures … at most as
//! many times as there were activation records on the stack at
//! optimization time" — stale activations run unpatched code until they
//! return.
//!
//! This crate models exactly those mechanics over an abstract program:
//!
//! * [`Procedure`], [`Image`] — the editable program image; the payload
//!   injected at each pc is a type parameter (the optimizer injects DFSM
//!   check chains, tests inject strings);
//! * [`Image::edit`] — a stop-the-world [`EditSession`] (copy + inject +
//!   patch) that commits atomically or rolls back entirely,
//!   [`Image::edit_partial`] — surgical patch-mode edits (the partial
//!   de-optimization primitive), [`Image::deoptimize`] — jump removal;
//! * [`Event`], [`ProgramSource`] — the execution event stream interface
//!   that workloads implement and the optimizer's executor consumes;
//! * [`FrameTracker`] — call-stack tracking that resolves, per activation,
//!   whether the patched copy or the stale original is executing;
//! * [`EditJournal`] — a write-ahead journal making edits
//!   crash-consistent: a commit that dies mid-patch is deterministically
//!   rolled forward on recovery, never left half-applied
//!   ([`EditSession::commit_journaled`]);
//! * [`ImageState`] / [`Image::export_state`] — canonical-order export
//!   and restore of the image's mutable state, the checkpointing
//!   primitive behind crash-consistent snapshots.
//!
//! # Examples
//!
//! ```
//! use hds_trace::Pc;
//! use hds_vulcan::{Image, Procedure};
//!
//! let mut image: Image<&'static str> = Image::new(vec![
//!     Procedure::new("walk_list", vec![Pc(0x10), Pc(0x14)]),
//! ]);
//! let mut edit = image.edit();
//! edit.inject(Pc(0x10), "check-chain").unwrap();
//! let report = edit.commit().unwrap();
//! assert_eq!(report.procedures_modified, 1);
//! // A fresh activation sees the injected payload…
//! assert_eq!(image.injected_at(Pc(0x10), image.epoch()), Some(&"check-chain"));
//! // …a stale activation (entered at epoch 0) does not.
//! assert_eq!(image.injected_at(Pc(0x10), 0), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod image;
mod interleave;
pub mod isa;
mod journal;
mod program;

pub use image::{CopyState, EditError, EditReport, EditSession, Image, ImageState};
pub use interleave::Interleaver;
pub use journal::{EditJournal, JournalEntry};
pub use program::{Event, ExitMismatch, FrameTracker, ProcId, Procedure, ProgramSource, VecSource};
