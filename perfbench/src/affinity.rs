//! Moves the benchmark's one thread from CPU to CPU between
//! repetitions.
//!
//! On a shared host one CPU of the VM can run at half speed for minutes
//! while the other does not — whatever shares its physical core is busy.
//! A thread that stays on the slow CPU for a whole run reads half speed
//! in every repetition, and the per-segment minimum cannot help. So a
//! run rotates its repetitions over every CPU it may use: still one
//! thread, never two at once, and the minimum sees each CPU.

/// Words of a `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, in order; empty if the
/// kernel does not say.
fn allowed() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&cpu| (mask[cpu / 64] >> (cpu % 64)) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpu`; `false` if the kernel
/// refused.
fn pin(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Visits the CPUs the thread started with, one per call to
/// [`Rotation::advance`].
#[derive(Debug)]
pub struct Rotation {
    cpus: Vec<usize>,
    turn: usize,
}

impl Rotation {
    /// A rotation over the CPUs the calling thread may use now.
    #[must_use]
    pub fn new() -> Self {
        Rotation {
            cpus: allowed(),
            turn: 0,
        }
    }

    /// Moves the calling thread to the next CPU in turn. With fewer
    /// than two CPUs, or if the kernel refuses, the thread stays where
    /// the scheduler puts it.
    pub fn advance(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[self.turn % self.cpus.len()];
        self.turn += 1;
        if !pin(cpu) {
            self.cpus.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_thread_runs_where_it_is_pinned() {
        let cpus = allowed();
        assert!(!cpus.is_empty(), "the kernel reports this thread's CPUs");
        let mut rotation = Rotation::new();
        for _ in 0..cpus.len() {
            rotation.advance();
            if cpus.len() > 1 {
                let now = allowed();
                assert_eq!(now.len(), 1);
                assert!(cpus.contains(&now[0]));
            }
        }
    }
}
