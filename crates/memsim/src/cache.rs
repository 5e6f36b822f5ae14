//! One set-associative LRU cache level.

use std::fmt;

use hds_trace::Addr;

/// Geometry of one cache level.
///
/// # Examples
///
/// ```
/// use hds_memsim::CacheConfig;
///
/// // The paper's L1: 16 KB, 4-way, 32-byte blocks.
/// let l1 = CacheConfig::new(16 * 1024, 4, 32);
/// assert_eq!(l1.num_sets(), 128);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Block (line) size in bytes.
    pub block_size: u64,
}

impl CacheConfig {
    /// Creates and validates a cache geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `block_size` and the implied set count are nonzero
    /// powers of two and the capacity is an exact multiple of
    /// `assoc * block_size`.
    #[must_use]
    pub fn new(size_bytes: u64, assoc: u32, block_size: u64) -> Self {
        assert!(
            block_size.is_power_of_two(),
            "block size must be a power of two"
        );
        assert!(assoc > 0, "associativity must be nonzero");
        let way_bytes = u64::from(assoc) * block_size;
        assert!(
            size_bytes.is_multiple_of(way_bytes),
            "capacity {size_bytes} not a multiple of assoc*block ({way_bytes})"
        );
        let sets = size_bytes / way_bytes;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        CacheConfig {
            size_bytes,
            assoc,
            block_size,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (u64::from(self.assoc) * self.block_size)
    }

    /// Number of blocks the cache can hold.
    #[must_use]
    pub fn num_blocks(&self) -> u64 {
        self.size_bytes / self.block_size
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} KB {}-way, {} B blocks",
            self.size_bytes / 1024,
            self.assoc,
            self.block_size
        )
    }
}

/// What happened to a prefetched block when it left (or was used in) the
/// cache — returned so the hierarchy can account usefulness/pollution
/// and write-backs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Evicted {
    pub kind: EvictedKind,
    /// Was the victim dirty (a write-back)?
    pub dirty: bool,
    /// Block number of the victim (meaningful unless `kind` is
    /// [`EvictedKind::None`]).
    pub block: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EvictedKind {
    /// Nothing was evicted (free way available).
    None,
    /// A demand-fetched (or already-used) block was evicted.
    Demand,
    /// A prefetched block was evicted without ever being used.
    UnusedPrefetch,
}

/// A set-associative LRU cache over block numbers.
///
/// Addresses are mapped to blocks with the configured block size; the
/// cache itself stores no data, only presence (this is a performance
/// model, not a functional simulator).
///
/// # Examples
///
/// ```
/// use hds_memsim::{Cache, CacheConfig};
/// use hds_trace::Addr;
///
/// let mut cache = Cache::new(CacheConfig::new(1024, 2, 32));
/// assert!(!cache.access(Addr(0)));      // cold miss
/// cache.fill(Addr(0), false);
/// assert!(cache.access(Addr(31)));      // same block: hit
/// assert!(!cache.access(Addr(32)));     // next block: miss
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// An address's block is `addr >> block_shift`...
    block_shift: u32,
    /// ...and a block's set is `block & set_mask`.
    set_mask: u64,
    /// Every line, way `w` of set `s` at `s * assoc + w`. Allocated by
    /// the first fill, so a cache that is never filled holds no lines.
    lines: Vec<LineState>,
    /// Resident ways per set: ways `0..filled[s]` of set `s` hold its
    /// lines, in residency order.
    filled: Vec<u32>,
    tick: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        Cache {
            config,
            block_shift: config.block_size.trailing_zeros(),
            set_mask: config.num_sets() - 1,
            lines: Vec::new(),
            filled: vec![0; config.num_sets() as usize],
            tick: 0,
        }
    }

    /// The geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The block containing `addr`.
    pub(crate) fn block_of(&self, addr: Addr) -> u64 {
        addr.0 >> self.block_shift
    }

    fn set_of(&self, block: u64) -> usize {
        (block & self.set_mask) as usize
    }

    /// The resident lines of `set`, in residency order.
    fn ways(&self, set: usize) -> &[LineState] {
        let start = set * self.config.assoc as usize;
        let end = start + self.filled[set] as usize;
        self.lines.get(start..end).unwrap_or(&[])
    }

    /// Index into `lines` of the resident line holding `block`.
    ///
    /// Compares every resident way with no early exit, so where the
    /// block sits never steers a branch and hit or miss is the probe's
    /// only data-dependent one. Blocks are unique within a set (every
    /// fill probes first or is known absent, and `restore_state`
    /// rejects duplicates), so at most one way matches.
    fn find(&self, block: u64) -> Option<usize> {
        let set = self.set_of(block);
        let ways = self.ways(set);
        let mut hit = ways.len();
        for (way, line) in ways.iter().enumerate() {
            if line.block == block {
                hit = way;
            }
        }
        (hit < ways.len()).then(|| set * self.config.assoc as usize + hit)
    }

    /// Probes and touches the block containing `addr`. Returns `true` on
    /// hit (updating LRU and clearing the prefetched-unused mark),
    /// `false` on miss (no fill — the hierarchy decides what to fill).
    pub fn access(&mut self, addr: Addr) -> bool {
        self.access_kind(addr, false)
    }

    /// Like [`Cache::access`], marking the line dirty when `write`.
    pub fn access_kind(&mut self, addr: Addr, write: bool) -> bool {
        self.touch(addr, write).is_some()
    }

    /// The one demand probe: advances the LRU clock and, on a hit,
    /// refreshes the line, clears its prefetched-unused mark and dirties
    /// it when `write`. Returns the line as it was *before* the touch
    /// (so the caller sees both prefetch flags), or `None` on a miss.
    pub(crate) fn touch(&mut self, addr: Addr, write: bool) -> Option<LineState> {
        self.tick += 1;
        let i = self.find(self.block_of(addr))?;
        let line = &mut self.lines[i];
        let before = *line;
        line.lru = self.tick;
        line.prefetched_unused = false;
        line.dirty |= write;
        Some(before)
    }

    /// Is the block containing `addr` resident? (No LRU update.)
    #[must_use]
    pub fn contains(&self, addr: Addr) -> bool {
        self.find(self.block_of(addr)).is_some()
    }

    /// Inserts the block containing `addr`, evicting the LRU line of its
    /// set if full. `prefetched` marks the line for pollution accounting.
    /// Returns what was evicted.
    pub(crate) fn fill_tracked(&mut self, addr: Addr, prefetched: bool) -> Evicted {
        let block = self.block_of(addr);
        let Some(i) = self.find(block) else {
            return self.fill_absent(addr, prefetched);
        };
        // Already resident: refresh (a prefetch of a resident block
        // must not reset its used flag).
        self.tick += 1;
        self.lines[i].lru = self.tick;
        Evicted {
            kind: EvictedKind::None,
            dirty: false,
            block,
        }
    }

    /// [`Cache::fill_tracked`] for a block the caller knows is not
    /// resident (the access just missed this level), without probing
    /// for it again.
    pub(crate) fn fill_absent(&mut self, addr: Addr, prefetched: bool) -> Evicted {
        let block = self.block_of(addr);
        debug_assert!(
            self.find(block).is_none(),
            "fill_absent of resident block {block}"
        );
        self.tick += 1;
        let tick = self.tick;
        let none = Evicted {
            kind: EvictedKind::None,
            dirty: false,
            block,
        };
        let assoc = self.config.assoc as usize;
        if self.lines.is_empty() {
            self.lines = vec![LineState::default(); self.filled.len() * assoc];
        }
        let new_line = LineState {
            block,
            lru: tick,
            prefetched_unused: prefetched,
            origin_prefetched: prefetched,
            dirty: false,
        };
        let set = self.set_of(block);
        let start = set * assoc;
        let filled = self.filled[set] as usize;
        if filled < assoc {
            self.lines[start + filled] = new_line;
            self.filled[set] += 1;
            return none;
        }
        let victim = self.lines[start..start + assoc]
            .iter_mut()
            .min_by_key(|l| l.lru)
            .expect("nonempty full set");
        let evicted = Evicted {
            kind: if victim.prefetched_unused {
                EvictedKind::UnusedPrefetch
            } else {
                EvictedKind::Demand
            },
            dirty: victim.dirty,
            block: victim.block,
        };
        *victim = new_line;
        evicted
    }

    /// Inserts the block containing `addr` (public convenience; pollution
    /// accounting is discarded).
    pub fn fill(&mut self, addr: Addr, prefetched: bool) {
        let _ = self.fill_tracked(addr, prefetched);
    }

    /// Empties the cache (used between experiment runs).
    pub fn clear(&mut self) {
        self.filled.fill(0);
        self.tick = 0;
    }

    /// Number of resident blocks.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.filled.iter().map(|&n| n as usize).sum()
    }

    /// Exports the cache's complete state (per-set lines in residency
    /// order plus the LRU tick) — the checkpointing primitive.
    #[must_use]
    pub fn export_state(&self) -> CacheState {
        CacheState {
            tick: self.tick,
            sets: (0..self.filled.len())
                .map(|set| self.ways(set).to_vec())
                .collect(),
        }
    }

    /// Restores state exported by [`Cache::export_state`].
    ///
    /// # Errors
    ///
    /// A [`StateError`] on field `sets`, leaving the cache untouched,
    /// unless the state fits this geometry: one entry per set, at most
    /// `assoc` lines in each, every line's block mapping to the set that
    /// lists it, and no block listed twice.
    pub fn restore_state(&mut self, state: &CacheState) -> Result<(), StateError> {
        let sets = self.filled.len();
        let fault = |problem| {
            Err(StateError {
                field: "sets",
                problem,
            })
        };
        if state.sets.len() != sets {
            return fault(StateProblem::SetCount {
                expected: sets,
                found: state.sets.len(),
            });
        }
        let assoc = self.config.assoc as usize;
        for (set, lines) in state.sets.iter().enumerate() {
            if lines.len() > assoc {
                return fault(StateProblem::OverfullSet {
                    set,
                    lines: lines.len(),
                });
            }
            for (way, line) in lines.iter().enumerate() {
                let block = line.block;
                if self.set_of(block) != set {
                    return fault(StateProblem::MisplacedBlock { set, block });
                }
                if lines[..way].iter().any(|l| l.block == block) {
                    return fault(StateProblem::DuplicateBlock { set, block });
                }
            }
        }
        self.tick = state.tick;
        self.filled.fill(0);
        if self.lines.is_empty() && state.sets.iter().any(|s| !s.is_empty()) {
            self.lines = vec![LineState::default(); sets * assoc];
        }
        for (set, lines) in state.sets.iter().enumerate().filter(|(_, l)| !l.is_empty()) {
            self.lines[set * assoc..][..lines.len()].copy_from_slice(lines);
            self.filled[set] = lines.len() as u32;
        }
        Ok(())
    }
}

/// One cached line: its block number, LRU stamp, and prefetch and
/// write-back flags — the cache's own line record, exported as is by
/// [`Cache::export_state`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LineState {
    /// Block number.
    pub block: u64,
    /// LRU stamp: the cache's tick at the line's last touch.
    pub lru: u64,
    /// Arrived by prefetch and not demand-used yet (pollution
    /// accounting).
    pub prefetched_unused: bool,
    /// The fill that brought this line in was a prefetch. Unlike
    /// `prefetched_unused` this never clears on use, so hits can be
    /// attributed to prefetched vs. demand-fetched lines.
    pub origin_prefetched: bool,
    /// Written since fill (write-back accounting).
    pub dirty: bool,
}

/// A [`Cache`]'s complete mutable state: the LRU tick and, per set (in
/// set order), the resident lines in residency order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheState {
    /// The LRU clock.
    pub tick: u64,
    /// Lines per set, outer index = set index.
    pub sets: Vec<Vec<LineState>>,
}

/// Why an exported state does not fit the cache or hierarchy it is
/// restored into.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateError {
    /// The offending field, as a path within the state (`sets`,
    /// `l1.sets`, `in_flight`, `pending`).
    pub field: &'static str,
    /// What is wrong with it.
    pub problem: StateProblem,
}

/// What is wrong with a field named by a [`StateError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateProblem {
    /// The state lists `found` sets; the cache has `expected`.
    SetCount {
        /// Sets of the cache.
        expected: usize,
        /// Sets in the state.
        found: usize,
    },
    /// A set lists more lines than the cache has ways.
    OverfullSet {
        /// The set.
        set: usize,
        /// Lines it lists.
        lines: usize,
    },
    /// A set lists a block that maps to another set.
    MisplacedBlock {
        /// The set.
        set: usize,
        /// The block.
        block: u64,
    },
    /// A set lists the same block twice.
    DuplicateBlock {
        /// The set.
        set: usize,
        /// The block.
        block: u64,
    },
    /// Blocks must be strictly increasing and this one is not.
    UnsortedBlock {
        /// The block out of order.
        block: u64,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.field)?;
        match self.problem {
            StateProblem::SetCount { expected, found } => {
                write!(f, "{found} sets, the cache has {expected}")
            }
            StateProblem::OverfullSet { set, lines } => {
                write!(f, "set {set} lists {lines} lines, more than the ways")
            }
            StateProblem::MisplacedBlock { set, block } => {
                write!(
                    f,
                    "set {set} lists block {block}, which maps to another set"
                )
            }
            StateProblem::DuplicateBlock { set, block } => {
                write!(f, "set {set} lists block {block} twice")
            }
            StateProblem::UnsortedBlock { block } => {
                write!(f, "block {block} out of order")
            }
        }
    }
}

impl std::error::Error for StateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_lines_report_writebacks_on_eviction() {
        let mut c = small();
        c.fill(Addr(0), false);
        assert!(c.access_kind(Addr(0), true)); // store: dirty
        c.fill(Addr(64), false);
        // Evicting block 0 (LRU after block 64's fill? block 0 touched
        // later) — touch 64 to make 0 the victim... fill order: 0 then
        // 64; access made 0 most recent; touch 64 now.
        assert!(c.access(Addr(64)));
        let evicted = c.fill_tracked(Addr(128), false);
        assert_eq!(evicted.kind, EvictedKind::Demand);
        assert!(evicted.dirty, "dirty victim must report a write-back");
        // Clean evictions do not.
        c.clear();
        c.fill(Addr(0), false);
        c.fill(Addr(64), false);
        assert!(c.access(Addr(64)));
        let evicted = c.fill_tracked(Addr(128), false);
        assert!(!evicted.dirty);
    }

    fn small() -> Cache {
        // 2 sets x 2 ways x 32-byte blocks = 128 bytes.
        Cache::new(CacheConfig::new(128, 2, 32))
    }

    #[test]
    fn geometry_paper_l1_l2() {
        let l1 = CacheConfig::new(16 * 1024, 4, 32);
        assert_eq!(l1.num_sets(), 128);
        assert_eq!(l1.num_blocks(), 512);
        let l2 = CacheConfig::new(256 * 1024, 8, 32);
        assert_eq!(l2.num_sets(), 1024);
        assert_eq!(l2.num_blocks(), 8192);
        assert_eq!(l1.to_string(), "16 KB 4-way, 32 B blocks");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_block() {
        let _ = CacheConfig::new(128, 2, 33);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn rejects_misaligned_capacity() {
        let _ = CacheConfig::new(100, 2, 32);
    }

    #[test]
    fn same_block_hits_after_fill() {
        let mut c = small();
        assert!(!c.access(Addr(0)));
        c.fill(Addr(0), false);
        assert!(c.access(Addr(0)));
        assert!(c.access(Addr(31)));
        assert!(!c.access(Addr(32)));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        // Blocks 0, 2, 4 all map to set 0 (even block numbers).
        c.fill(Addr(0), false); // block 0
        c.fill(Addr(64), false); // block 2
        assert!(c.contains(Addr(0)));
        // Touch block 0 so block 2 is LRU.
        assert!(c.access(Addr(0)));
        c.fill(Addr(128), false); // block 4 evicts block 2
        assert!(c.contains(Addr(0)));
        assert!(!c.contains(Addr(64)));
        assert!(c.contains(Addr(128)));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = small();
        c.fill(Addr(0), false); // set 0
        c.fill(Addr(32), false); // set 1
        c.fill(Addr(64), false); // set 0
        c.fill(Addr(96), false); // set 1
        assert_eq!(c.occupancy(), 4);
        // Filling more even blocks never evicts odd ones.
        c.fill(Addr(128), false);
        c.fill(Addr(192), false);
        assert!(c.contains(Addr(32)));
        assert!(c.contains(Addr(96)));
    }

    #[test]
    fn pollution_tracking() {
        let mut c = small();
        c.fill(Addr(0), true);
        c.fill(Addr(64), true);
        // Evicting an unused prefetched line reports it.
        assert_eq!(
            c.fill_tracked(Addr(128), false).kind,
            EvictedKind::UnusedPrefetch
        );
        // A used prefetched line counts as demand on eviction.
        c.clear();
        c.fill(Addr(0), true);
        assert!(c.access(Addr(0))); // use it
        c.fill(Addr(64), false);
        assert_eq!(c.fill_tracked(Addr(128), false).kind, EvictedKind::Demand);
    }

    #[test]
    fn refill_of_resident_block_keeps_used_flag() {
        let mut c = small();
        c.fill(Addr(0), false); // demand
        c.fill(Addr(0), true); // redundant prefetch must not mark unused
        c.fill(Addr(64), false);
        assert_eq!(c.fill_tracked(Addr(128), false).kind, EvictedKind::Demand);
    }

    #[test]
    fn clear_empties() {
        let mut c = small();
        c.fill(Addr(0), false);
        c.clear();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.contains(Addr(0)));
    }
}
