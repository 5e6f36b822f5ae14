//! The abstract program model: procedures, execution events, and
//! activation tracking.

use std::fmt;

use hds_trace::{AccessKind, Addr, DataRef, Pc};

/// Identifier of a procedure within an [`Image`](crate::Image).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

impl ProcId {
    /// Returns the id as a `usize` index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc{}", self.0)
    }
}

/// A procedure of the simulated binary: a name and the set of load/store
/// pcs it contains. (The actual instruction *sequence* is produced
/// dynamically by the workload as an [`Event`] stream; the static image
/// only needs to know which pcs belong to which procedure so editing can
/// copy and patch at procedure granularity.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Procedure {
    name: String,
    pcs: Vec<Pc>,
}

impl Procedure {
    /// Creates a procedure from its name and the access pcs it contains.
    #[must_use]
    pub fn new(name: impl Into<String>, pcs: Vec<Pc>) -> Self {
        Procedure {
            name: name.into(),
            pcs,
        }
    }

    /// The procedure's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The access pcs the procedure contains.
    #[must_use]
    pub fn pcs(&self) -> &[Pc] {
        &self.pcs
    }
}

/// One step of a simulated program's execution, produced by a
/// [`ProgramSource`] and consumed by the optimizer's executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A procedure is entered — a bursty-tracing check site, and the
    /// point where the entry jump of a patched procedure takes effect.
    Enter(ProcId),
    /// A loop back-edge inside the given procedure — the other
    /// bursty-tracing check site (Figure 2).
    BackEdge(ProcId),
    /// `n` plain (non-memory) instructions execute.
    Work(u32),
    /// A load or store executes.
    Access(DataRef, AccessKind),
    /// The current activation of the given procedure returns.
    Exit(ProcId),
    /// A *software* prefetch instruction that is part of the program
    /// itself (e.g. compiler-inserted jump-pointer prefetching \[22\]),
    /// as opposed to the prefetches the optimizer injects.
    Prefetch(Addr),
    /// Subsequent events execute on the given thread (emitted by the
    /// [`Interleaver`](crate::Interleaver); single-threaded sources never
    /// produce it). Call stacks are per-thread; the injected matching
    /// state and the profiling machinery are global, as in the paper.
    Thread(u32),
}

/// A source of execution events — implemented by every workload.
///
/// Sources must be deterministic for a given construction seed: the
/// paper's framework "is deterministic … executions of deterministic
/// benchmarks are repeatable, which helps testing" (§2.2).
pub trait ProgramSource {
    /// Produces the next event, or `None` when the program finishes.
    fn next_event(&mut self) -> Option<Event>;

    /// A short name for reports.
    fn name(&self) -> &str;
}

/// Replays a pre-recorded event vector (testing and microbenchmarks).
#[derive(Clone, Debug)]
pub struct VecSource {
    name: String,
    events: std::vec::IntoIter<Event>,
}

impl VecSource {
    /// Creates a source replaying `events` in order.
    #[must_use]
    pub fn new(name: impl Into<String>, events: Vec<Event>) -> Self {
        VecSource {
            name: name.into(),
            events: events.into_iter(),
        }
    }
}

impl ProgramSource for VecSource {
    fn next_event(&mut self) -> Option<Event> {
        self.events.next()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Tracks live activations and the image epoch each one was entered at,
/// implementing the paper's stale-activation semantics: a frame entered
/// before a patch keeps executing the original code; only activations
/// entered *after* the patch run the instrumented copy.
///
/// # Examples
///
/// ```
/// use hds_vulcan::{FrameTracker, ProcId};
///
/// let mut frames = FrameTracker::new();
/// frames.enter(ProcId(0), 0);      // entered at epoch 0
/// assert_eq!(frames.current_epoch(), Some(0));
/// frames.enter(ProcId(1), 3);      // nested call after a patch at epoch 3
/// assert_eq!(frames.current_epoch(), Some(3));
/// assert_eq!(frames.exit(ProcId(1)), Ok(()));
/// assert_eq!(frames.current_epoch(), Some(0));
/// // An exit that does not match the innermost activation is reported.
/// assert!(frames.exit(ProcId(7)).is_err());
/// ```
#[derive(Clone, Debug, Default)]
pub struct FrameTracker {
    stack: Vec<(ProcId, u64)>,
    max_depth: usize,
}

impl FrameTracker {
    /// Creates an empty call stack.
    #[must_use]
    pub fn new() -> Self {
        FrameTracker::default()
    }

    /// Pushes an activation of `proc` entered at image `epoch`.
    pub fn enter(&mut self, proc: ProcId, epoch: u64) {
        self.stack.push((proc, epoch));
        self.max_depth = self.max_depth.max(self.stack.len());
    }

    /// Pops the current activation.
    ///
    /// # Errors
    ///
    /// An [`ExitMismatch`], leaving the stack as it was, when the stack
    /// is empty or the top frame is a different procedure — the event
    /// stream is malformed.
    pub fn exit(&mut self, proc: ProcId) -> Result<(), ExitMismatch> {
        match self.stack.last() {
            Some(&(top, _)) if top == proc => {
                self.stack.pop();
                Ok(())
            }
            top => Err(ExitMismatch {
                exited: proc,
                current: top.map(|&(p, _)| p),
            }),
        }
    }

    /// The epoch at which the current (innermost) activation was entered,
    /// or `None` outside any procedure.
    #[must_use]
    pub fn current_epoch(&self) -> Option<u64> {
        self.stack.last().map(|&(_, e)| e)
    }

    /// The currently executing procedure.
    #[must_use]
    pub fn current_proc(&self) -> Option<ProcId> {
        self.stack.last().map(|&(p, _)| p)
    }

    /// Current stack depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Deepest stack observed (diagnostic).
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// The live activation stack, outermost first — the checkpointing
    /// export (pairs of procedure and entry epoch).
    #[must_use]
    pub fn export_stack(&self) -> Vec<(ProcId, u64)> {
        self.stack.clone()
    }

    /// Reconstructs a tracker from a stack exported by
    /// [`FrameTracker::export_stack`] plus the observed `max_depth`
    /// diagnostic.
    #[must_use]
    pub fn from_parts(stack: Vec<(ProcId, u64)>, max_depth: usize) -> Self {
        let max_depth = max_depth.max(stack.len());
        FrameTracker { stack, max_depth }
    }
}

/// An `Exit` event that does not match the innermost activation,
/// reported by [`FrameTracker::exit`]: the event stream is malformed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExitMismatch {
    /// The procedure the event exits.
    pub exited: ProcId,
    /// The innermost activation, or `None` when the stack is empty.
    pub current: Option<ProcId>,
}

impl fmt::Display for ExitMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.current {
            Some(top) => write!(f, "exit of {} but current frame is {top}", self.exited),
            None => write!(f, "exit of {} with empty call stack", self.exited),
        }
    }
}

impl std::error::Error for ExitMismatch {}

#[cfg(test)]
mod tests {
    use super::*;
    use hds_trace::Addr;

    #[test]
    fn vec_source_replays_in_order() {
        let events = vec![
            Event::Enter(ProcId(0)),
            Event::Work(5),
            Event::Access(DataRef::new(Pc(1), Addr(2)), AccessKind::Load),
            Event::Exit(ProcId(0)),
        ];
        let mut src = VecSource::new("replay", events.clone());
        assert_eq!(src.name(), "replay");
        let mut collected = Vec::new();
        while let Some(e) = src.next_event() {
            collected.push(e);
        }
        assert_eq!(collected, events);
    }

    #[test]
    fn frame_tracker_nesting() {
        let mut t = FrameTracker::new();
        assert_eq!(t.current_epoch(), None);
        assert_eq!(t.current_proc(), None);
        t.enter(ProcId(0), 0);
        t.enter(ProcId(1), 0);
        t.enter(ProcId(0), 2); // recursive re-entry after a patch
        assert_eq!(t.depth(), 3);
        assert_eq!(t.current_epoch(), Some(2));
        assert_eq!(t.exit(ProcId(0)), Ok(()));
        assert_eq!(t.current_epoch(), Some(0));
        assert_eq!(t.current_proc(), Some(ProcId(1)));
        assert_eq!(t.exit(ProcId(1)), Ok(()));
        assert_eq!(t.exit(ProcId(0)), Ok(()));
        assert_eq!(t.depth(), 0);
        assert_eq!(t.max_depth(), 3);
    }

    #[test]
    fn exit_without_enter_is_reported() {
        let err = FrameTracker::new().exit(ProcId(0)).unwrap_err();
        assert_eq!(
            err,
            ExitMismatch {
                exited: ProcId(0),
                current: None
            }
        );
        assert_eq!(err.to_string(), "exit of proc0 with empty call stack");
    }

    #[test]
    fn mismatched_exit_is_reported_and_keeps_the_frame() {
        let mut t = FrameTracker::new();
        t.enter(ProcId(0), 0);
        let err = t.exit(ProcId(1)).unwrap_err();
        assert_eq!(err.to_string(), "exit of proc1 but current frame is proc0");
        assert_eq!(t.current_proc(), Some(ProcId(0)));
        assert_eq!(t.exit(ProcId(0)), Ok(()));
    }

    #[test]
    fn procedure_accessors() {
        let p = Procedure::new("main", vec![Pc(1), Pc(2)]);
        assert_eq!(p.name(), "main");
        assert_eq!(p.pcs(), &[Pc(1), Pc(2)]);
        assert_eq!(ProcId(3).to_string(), "proc3");
    }
}
