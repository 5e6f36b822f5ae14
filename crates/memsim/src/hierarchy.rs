//! The two-level memory hierarchy with in-flight prefetches.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use hds_trace::{AccessKind, Addr};

use crate::cache::{
    Cache, CacheConfig, CacheState, Evicted, EvictedKind, StateError, StateProblem,
};
use crate::cost::CostModel;

/// Geometry and timing of the full hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// First-level data cache.
    pub l1: CacheConfig,
    /// Second-level unified cache.
    pub l2: CacheConfig,
    /// Cycle charges.
    pub cost: CostModel,
}

impl HierarchyConfig {
    /// The paper's measurement machine (§4.1): 16 KB 4-way L1, 256 KB
    /// 8-way L2, both with 32-byte blocks.
    #[must_use]
    pub fn pentium_iii() -> Self {
        HierarchyConfig {
            l1: CacheConfig::new(16 * 1024, 4, 32),
            l2: CacheConfig::new(256 * 1024, 8, 32),
            cost: CostModel::default(),
        }
    }

    /// A tiny hierarchy for unit tests (512 B / 4 KB).
    #[must_use]
    pub fn tiny() -> Self {
        HierarchyConfig {
            l1: CacheConfig::new(512, 2, 32),
            l2: CacheConfig::new(4096, 4, 32),
            cost: CostModel::default(),
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::pentium_iii()
    }
}

/// Which level served a demand access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// Served by the first-level cache.
    L1Hit,
    /// L1 missed, L2 hit.
    L2Hit,
    /// Both levels missed; the block came from memory.
    Memory,
    /// The block was in flight from an earlier prefetch; the access
    /// stalled only for the remaining latency (a *late* prefetch).
    LatePrefetch,
}

/// The result of one demand access: which level served it and the cycles
/// it cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Serving level.
    pub outcome: AccessOutcome,
    /// Total cycles charged for the access.
    pub cycles: u64,
}

/// How a *tracked* prefetch ultimately resolved (see
/// [`MemorySystem::prefetch_tagged_at`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrefetchFate {
    /// The block was demand-hit in L1 before eviction.
    Useful,
    /// The demand access arrived while the block was still in flight.
    Late,
    /// The block was evicted without ever being demand-used.
    Polluted,
}

/// The resolution record of one tracked prefetch. Queued internally and
/// drained with [`MemorySystem::take_outcomes`], so attribution stays
/// decoupled from whoever consumes it (the telemetry layer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchResolution {
    /// The tag the issuer attached (stream id, by convention).
    pub tag: u32,
    /// Cache block number.
    pub block: u64,
    /// How the prefetch resolved.
    pub fate: PrefetchFate,
    /// Simulated time the prefetch was issued.
    pub issued_at: u64,
    /// Simulated time of the resolution.
    pub resolved_at: u64,
}

/// Issue bookkeeping for one tracked prefetched block.
#[derive(Clone, Copy, Debug)]
struct PendingPrefetch {
    tag: u32,
    issued_at: u64,
}

/// Counters the evaluation reports on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MemStats {
    /// Demand accesses served by L1.
    pub l1_hits: u64,
    /// Of the L1 hits, those served by a line originally filled by a
    /// prefetch (hits on demand-fetched lines are the difference). This
    /// attributes *all* hits on such lines, not just the first — the
    /// prefetched-vs-demand split of where hits come from.
    pub l1_hits_on_prefetched: u64,
    /// Demand accesses that missed L1.
    pub l1_misses: u64,
    /// Demand accesses served by L2.
    pub l2_hits: u64,
    /// Demand accesses that missed both levels.
    pub l2_misses: u64,
    /// Prefetches issued.
    pub prefetches_issued: u64,
    /// Prefetched blocks that were demand-hit in L1 while still marked
    /// unused (a useful prefetch).
    pub prefetches_useful: u64,
    /// Demand accesses that caught their block still in flight.
    pub prefetches_late: u64,
    /// Prefetched blocks evicted from L1 without ever being used
    /// (pollution).
    pub prefetches_polluting: u64,
    /// Dirty L1 lines evicted (write-backs to L2). Counted for
    /// bandwidth accounting; the cost model does not charge time for
    /// them (write-backs overlap execution on the modelled machine).
    pub writebacks: u64,
    /// Total demand-access cycles.
    pub demand_cycles: u64,
}

impl MemStats {
    /// Demand miss rate of the L1 (misses / accesses).
    #[must_use]
    pub fn l1_miss_rate(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.l1_misses as f64 / total as f64
        }
    }

    /// Fraction of issued prefetches that proved useful.
    #[must_use]
    pub fn prefetch_accuracy(&self) -> f64 {
        if self.prefetches_issued == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.prefetches_useful as f64 / self.prefetches_issued as f64
        }
    }
}

impl fmt::Display for MemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L1 {}/{} miss, L2 {}/{} miss, {} prefetches ({} useful, {} late, {} polluting)",
            self.l1_misses,
            self.l1_hits + self.l1_misses,
            self.l2_misses,
            self.l2_hits + self.l2_misses,
            self.prefetches_issued,
            self.prefetches_useful,
            self.prefetches_late,
            self.prefetches_polluting,
        )
    }
}

/// The two-level memory system.
///
/// Time is external: the caller advances a cycle counter and passes it to
/// [`MemorySystem::access`] / [`MemorySystem::prefetch`] so prefetch
/// timeliness can be modelled. Prefetches complete `memory_cycles` after
/// issue (unless the block was already cached); an access that arrives
/// before completion stalls for the remainder and counts as
/// [`AccessOutcome::LatePrefetch`].
#[derive(Clone, Debug)]
pub struct MemorySystem {
    config: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    /// Blocks in flight from prefetches: block number -> completion
    /// time. Ordered by block, the order they land in; the blocks come
    /// from the trace, so they are never hashed.
    in_flight: BTreeMap<u64, u64>,
    /// No in-flight prefetch completes before this time (`u64::MAX` when
    /// none is in flight). Never later than the earliest completion, so
    /// an access with nothing due costs one comparison.
    next_due: u64,
    /// Tracked (tagged) prefetched blocks awaiting resolution. Every
    /// tagged prefetch inserts and removes one, a churn at which std's
    /// map measured faster than a `BTreeMap`; its keyed SipHash is not
    /// a weak hasher, so trace-supplied blocks are safe here.
    pending: HashMap<u64, PendingPrefetch>,
    /// Resolved outcomes awaiting [`MemorySystem::take_outcomes`]. Only
    /// tagged prefetches produce entries, so untracked runs pay nothing.
    outcomes: Vec<PrefetchResolution>,
    stats: MemStats,
}

impl MemorySystem {
    /// Creates an empty hierarchy.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        MemorySystem {
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            in_flight: BTreeMap::new(),
            next_due: u64::MAX,
            pending: HashMap::new(),
            outcomes: Vec::new(),
            config,
            stats: MemStats::default(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Resets statistics (not cache contents).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    /// Performs a demand access at simulated time `now` (untimed
    /// convenience: [`MemorySystem::access`] uses `now = u64::MAX`, i.e.
    /// all in-flight prefetches have landed).
    pub fn access_at(&mut self, addr: Addr, kind: AccessKind, now: u64) -> AccessResult {
        let cost = self.config.cost;
        let block = self.l1.block_of(addr);
        self.land_arrived(now);

        // Still in flight? Stall for the remainder, then treat as an L1
        // fill (prefetcht0 fills both levels).
        if let Some(done) = self.in_flight.remove(&block) {
            let remaining = done.saturating_sub(now);
            self.resolve(block, PrefetchFate::Late, now);
            self.fill_both(addr, false, now); // arrives used
            self.mark_if_store(addr, kind);
            self.stats.prefetches_late += 1;
            self.stats.l1_misses += 1;
            self.stats.l2_misses += 1;
            let cycles = cost.l1_hit_cycles + remaining;
            self.stats.demand_cycles += cycles;
            // The stalled-for block still counts as a (late) useful
            // prefetch: it shortened the miss.
            self.stats.prefetches_useful += 1;
            return AccessResult {
                outcome: AccessOutcome::LatePrefetch,
                cycles,
            };
        }

        if let Some(line) = self.l1.touch(addr, kind == AccessKind::Store) {
            self.stats.l1_hits += 1;
            if line.origin_prefetched {
                self.stats.l1_hits_on_prefetched += 1;
            }
            // The first demand hit on a prefetched line: a useful
            // prefetch.
            if line.prefetched_unused {
                self.stats.prefetches_useful += 1;
                self.resolve(block, PrefetchFate::Useful, now);
            }
            let cycles = cost.l1_hit_cycles;
            self.stats.demand_cycles += cycles;
            return AccessResult {
                outcome: AccessOutcome::L1Hit,
                cycles,
            };
        }
        self.stats.l1_misses += 1;
        if self.l2.access(addr) {
            self.stats.l2_hits += 1;
            self.fill_l1_absent(addr, false, now);
            self.mark_if_store(addr, kind);
            let cycles = cost.l2_total_cycles();
            self.stats.demand_cycles += cycles;
            return AccessResult {
                outcome: AccessOutcome::L2Hit,
                cycles,
            };
        }
        self.stats.l2_misses += 1;
        self.fill_l1_absent(addr, false, now);
        let _ = self.l2.fill_absent(addr, false);
        self.mark_if_store(addr, kind);
        let cycles = cost.full_miss_cycles();
        self.stats.demand_cycles += cycles;
        AccessResult {
            outcome: AccessOutcome::Memory,
            cycles,
        }
    }

    /// Untimed demand access: all previously issued prefetches are
    /// considered complete.
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessResult {
        self.access_at(addr, kind, u64::MAX)
    }

    /// Issues a `prefetcht0`-style prefetch of `addr` at time `now`: the
    /// block will be resident in both levels `memory_cycles` later (or is
    /// promoted immediately if already L2-resident). Returns the issue
    /// cost in cycles.
    pub fn prefetch_at(&mut self, addr: Addr, now: u64) -> u64 {
        self.prefetch_inner(addr, now, None)
    }

    /// Like [`MemorySystem::prefetch_at`], additionally *tracking* the
    /// prefetch under `tag` (by convention the issuing stream's id): its
    /// eventual resolution — useful, late, or polluted — is queued as a
    /// [`PrefetchResolution`] for [`MemorySystem::take_outcomes`].
    /// Timing and cache effects are identical to the untagged call, so
    /// enabling attribution never perturbs a simulation. Redundant
    /// prefetches of L1-resident blocks are not tracked (they resolve
    /// never), and a re-prefetch of a still-pending block keeps the
    /// original issue record.
    pub fn prefetch_tagged_at(&mut self, addr: Addr, now: u64, tag: u32) -> u64 {
        self.prefetch_inner(addr, now, Some(tag))
    }

    fn prefetch_inner(&mut self, addr: Addr, now: u64, tag: Option<u32>) -> u64 {
        let cost = self.config.cost;
        self.land_arrived(now);
        self.stats.prefetches_issued += 1;
        let block = self.l1.block_of(addr);
        if self.l1.contains(addr) {
            // Redundant prefetch: no effect beyond issue cost.
            return cost.prefetch_issue_cycles;
        }
        if let Some(tag) = tag {
            self.pending.entry(block).or_insert(PendingPrefetch {
                tag,
                issued_at: now,
            });
        }
        if self.l2.contains(addr) {
            // L2 hit: promotion to L1 is fast; model as immediate.
            self.fill_l1_absent(addr, true, now);
            return cost.prefetch_issue_cycles;
        }
        let done = *self
            .in_flight
            .entry(block)
            .or_insert(now.saturating_add(cost.memory_cycles));
        self.next_due = self.next_due.min(done);
        cost.prefetch_issue_cycles
    }

    /// Untimed prefetch: completes before any later untimed access.
    pub fn prefetch(&mut self, addr: Addr) -> u64 {
        self.prefetch_at(addr, 0)
    }

    /// Drains the queued resolutions of tracked prefetches (in
    /// resolution order). Cheap to call when nothing resolved: an empty
    /// queue is handed back without allocating.
    pub fn take_outcomes(&mut self) -> Vec<PrefetchResolution> {
        std::mem::take(&mut self.outcomes)
    }

    /// Resolves the tracked prefetch of `block`, if any.
    fn resolve(&mut self, block: u64, fate: PrefetchFate, now: u64) {
        if self.pending.is_empty() {
            return; // untracked runs never hash
        }
        if let Some(p) = self.pending.remove(&block) {
            self.outcomes.push(PrefetchResolution {
                tag: p.tag,
                block,
                fate,
                issued_at: p.issued_at,
                resolved_at: now,
            });
        }
    }

    /// Moves completed in-flight prefetches into the caches, in block
    /// order, so a restored hierarchy fills (and evicts) identically.
    fn land_arrived(&mut self, now: u64) {
        if now < self.next_due || self.in_flight.is_empty() {
            return;
        }
        let block_size = self.config.l1.block_size;
        let mut in_flight = std::mem::take(&mut self.in_flight);
        let mut next_due = u64::MAX;
        in_flight.retain(|&block, &mut done| {
            if done > now {
                next_due = next_due.min(done);
                return true;
            }
            self.fill_both(Addr(block.wrapping_mul(block_size)), true, now);
            false
        });
        self.in_flight = in_flight;
        self.next_due = next_due;
    }

    /// Write-allocate: a store that filled on miss dirties the new line.
    fn mark_if_store(&mut self, addr: Addr, kind: AccessKind) {
        if kind == AccessKind::Store {
            let _ = self.l1.access_kind(addr, true);
        }
    }

    /// Fills L1 with a block that may already be resident (a landing
    /// or late prefetch, or [`MemorySystem::install_l1`]).
    fn fill_l1(&mut self, addr: Addr, prefetched: bool, now: u64) {
        let evicted = self.l1.fill_tracked(addr, prefetched);
        self.l1_victim(evicted, now);
    }

    /// Fills L1 with a block the caller just probed L1 for and missed,
    /// without probing again.
    fn fill_l1_absent(&mut self, addr: Addr, prefetched: bool, now: u64) {
        let evicted = self.l1.fill_absent(addr, prefetched);
        self.l1_victim(evicted, now);
    }

    /// Accounts what an L1 fill displaced: an unused prefetched line is
    /// pollution (resolving its tracked prefetch), a dirty one a
    /// write-back.
    fn l1_victim(&mut self, evicted: Evicted, now: u64) {
        if evicted.kind == EvictedKind::UnusedPrefetch {
            self.stats.prefetches_polluting += 1;
            self.resolve(evicted.block, PrefetchFate::Polluted, now);
        }
        if evicted.dirty {
            self.stats.writebacks += 1;
        }
    }

    fn fill_both(&mut self, addr: Addr, prefetched: bool, now: u64) {
        self.fill_l1(addr, prefetched, now);
        let _ = self.l2.fill_tracked(addr, prefetched);
    }

    /// Installs the block containing `addr` directly into L1 (not L2),
    /// charging nothing — for integrations that stage data outside the
    /// hierarchy, like stream buffers, where the fill cost is accounted
    /// by the caller.
    pub fn install_l1(&mut self, addr: Addr) {
        self.fill_l1(addr, false, 0);
    }

    /// Is the block containing `addr` L1-resident?
    #[must_use]
    pub fn l1_contains(&self, addr: Addr) -> bool {
        self.l1.contains(addr)
    }

    /// Is the block containing `addr` L2-resident?
    #[must_use]
    pub fn l2_contains(&self, addr: Addr) -> bool {
        self.l2.contains(addr)
    }

    /// Empties both caches and the in-flight queue, preserving stats.
    /// Tracked-but-unresolved prefetches are dropped without an outcome
    /// (their lines no longer exist to resolve against).
    pub fn clear(&mut self) {
        self.l1.clear();
        self.l2.clear();
        self.in_flight.clear();
        self.next_due = u64::MAX;
        self.pending.clear();
    }

    /// Exports the hierarchy's complete mutable state in canonical
    /// order (in-flight and pending maps sorted by block, outcome queue
    /// in arrival order) — the checkpointing primitive.
    #[must_use]
    pub fn export_state(&self) -> MemState {
        let mut pending: Vec<(u64, u32, u64)> = self
            .pending
            .iter()
            .map(|(&b, p)| (b, p.tag, p.issued_at))
            .collect();
        pending.sort_unstable();
        MemState {
            l1: self.l1.export_state(),
            l2: self.l2.export_state(),
            in_flight: self.in_flight.iter().map(|(&b, &t)| (b, t)).collect(),
            pending,
            outcomes: self.outcomes.clone(),
            stats: self.stats,
        }
    }

    /// Restores state exported by [`MemorySystem::export_state`]. The
    /// hierarchy must have the geometry the state was exported under.
    ///
    /// # Errors
    ///
    /// A [`StateError`] naming the field (`l1.sets`, `l2.sets`,
    /// `in_flight`, `pending`), leaving the hierarchy untouched, when a
    /// cache state does not fit its level (see [`Cache::restore_state`])
    /// or the in-flight or pending blocks are not strictly increasing.
    pub fn restore_state(&mut self, state: &MemState) -> Result<(), StateError> {
        let level = |config: CacheConfig, cache: &CacheState, field| {
            let mut level = Cache::new(config);
            level
                .restore_state(cache)
                .map_err(|e| StateError { field, ..e })?;
            Ok(level)
        };
        let l1 = level(self.config.l1, &state.l1, "l1.sets")?;
        let l2 = level(self.config.l2, &state.l2, "l2.sets")?;
        let unsorted = |field, block| StateError {
            field,
            problem: StateProblem::UnsortedBlock { block },
        };
        if let Some(w) = state.in_flight.windows(2).find(|w| w[1].0 <= w[0].0) {
            return Err(unsorted("in_flight", w[1].0));
        }
        if let Some(w) = state.pending.windows(2).find(|w| w[1].0 <= w[0].0) {
            return Err(unsorted("pending", w[1].0));
        }
        self.l1 = l1;
        self.l2 = l2;
        self.in_flight = state.in_flight.iter().copied().collect();
        self.next_due = self.in_flight.values().copied().min().unwrap_or(u64::MAX);
        self.pending = state
            .pending
            .iter()
            .map(|&(block, tag, issued_at)| (block, PendingPrefetch { tag, issued_at }))
            .collect();
        self.outcomes = state.outcomes.clone();
        self.stats = state.stats;
        Ok(())
    }
}

/// A [`MemorySystem`]'s complete mutable state in canonical order,
/// produced by [`MemorySystem::export_state`] for crash-consistent
/// snapshots.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemState {
    /// First-level cache state.
    pub l1: CacheState,
    /// Second-level cache state.
    pub l2: CacheState,
    /// In-flight prefetches as `(block, completion_time)`, sorted.
    pub in_flight: Vec<(u64, u64)>,
    /// Tracked prefetches as `(block, tag, issued_at)`, sorted.
    pub pending: Vec<(u64, u32, u64)>,
    /// Resolved-but-undrained outcomes, in resolution order.
    pub outcomes: Vec<PrefetchResolution>,
    /// Accumulated statistics.
    pub stats: MemStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemorySystem {
        MemorySystem::new(HierarchyConfig::tiny())
    }

    #[test]
    fn miss_then_l1_hit() {
        let mut m = mem();
        let r = m.access(Addr(0x100), AccessKind::Load);
        assert_eq!(r.outcome, AccessOutcome::Memory);
        assert_eq!(r.cycles, CostModel::default().full_miss_cycles());
        let r = m.access(Addr(0x100), AccessKind::Load);
        assert_eq!(r.outcome, AccessOutcome::L1Hit);
        assert_eq!(r.cycles, CostModel::default().l1_hit_cycles);
        assert_eq!(m.stats().l1_hits, 1);
        assert_eq!(m.stats().l2_misses, 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = mem();
        // Fill L1 set 0 (2-way, 16 sets for 512B/32B... 512/(2*32) = 8 sets).
        // Blocks 0, 8, 16 map to set 0.
        m.access(Addr(0), AccessKind::Load);
        m.access(Addr(8 * 32), AccessKind::Load);
        m.access(Addr(16 * 32), AccessKind::Load); // evicts block 0 from L1
        let r = m.access(Addr(0), AccessKind::Load);
        assert_eq!(r.outcome, AccessOutcome::L2Hit);
        assert_eq!(r.cycles, CostModel::default().l2_total_cycles());
    }

    #[test]
    fn timely_prefetch_turns_miss_into_hit() {
        let mut m = mem();
        m.prefetch_at(Addr(0x200), 0);
        // Access long after completion: L1 hit, prefetch useful.
        let r = m.access_at(Addr(0x200), AccessKind::Load, 10_000);
        assert_eq!(r.outcome, AccessOutcome::L1Hit);
        assert_eq!(m.stats().prefetches_useful, 1);
        assert_eq!(m.stats().prefetches_issued, 1);
    }

    #[test]
    fn late_prefetch_stalls_partially() {
        let mut m = mem();
        let cost = CostModel::default();
        m.prefetch_at(Addr(0x200), 0);
        // Access half-way through the memory latency.
        let half = cost.memory_cycles / 2;
        let r = m.access_at(Addr(0x200), AccessKind::Load, half);
        assert_eq!(r.outcome, AccessOutcome::LatePrefetch);
        assert_eq!(r.cycles, cost.l1_hit_cycles + (cost.memory_cycles - half));
        assert!(r.cycles < cost.full_miss_cycles());
        assert_eq!(m.stats().prefetches_late, 1);
    }

    #[test]
    fn prefetch_of_l2_resident_promotes() {
        let mut m = mem();
        // Get a block into L2 but not L1.
        m.access(Addr(0), AccessKind::Load);
        m.access(Addr(8 * 32), AccessKind::Load);
        m.access(Addr(16 * 32), AccessKind::Load); // block 0 now only in L2
        assert!(!m.l1_contains(Addr(0)));
        m.prefetch_at(Addr(0), 0);
        assert!(m.l1_contains(Addr(0)));
        let r = m.access_at(Addr(0), AccessKind::Load, 1);
        assert_eq!(r.outcome, AccessOutcome::L1Hit);
    }

    #[test]
    fn pollution_counted_on_unused_eviction() {
        let mut m = mem();
        // Prefetch two blocks into L1 set 0 and never use them.
        m.prefetch(Addr(0));
        m.prefetch(Addr(8 * 32));
        // Land them.
        m.access_at(Addr(32), AccessKind::Load, u64::MAX); // unrelated access lands in-flight
                                                           // Demand-fill two more set-0 blocks: evicts the unused prefetches.
        m.access(Addr(16 * 32), AccessKind::Load);
        m.access(Addr(24 * 32), AccessKind::Load);
        m.access(Addr(32 * 32), AccessKind::Load);
        assert!(m.stats().prefetches_polluting >= 1, "{}", m.stats());
    }

    #[test]
    fn redundant_prefetch_costs_only_issue() {
        let mut m = mem();
        m.access(Addr(0x40), AccessKind::Load);
        let before = *m.stats();
        let cycles = m.prefetch_at(Addr(0x40), 100);
        assert_eq!(cycles, CostModel::default().prefetch_issue_cycles);
        assert_eq!(m.stats().prefetches_issued, before.prefetches_issued + 1);
        // No in-flight entry created.
        let r = m.access_at(Addr(0x40), AccessKind::Load, 101);
        assert_eq!(r.outcome, AccessOutcome::L1Hit);
    }

    #[test]
    fn stats_display_and_rates() {
        let mut m = mem();
        m.access(Addr(0), AccessKind::Load);
        m.access(Addr(0), AccessKind::Load);
        let s = m.stats();
        assert!((s.l1_miss_rate() - 0.5).abs() < 1e-9);
        assert_eq!(s.prefetch_accuracy(), 0.0);
        assert!(s.to_string().contains("L1 1/2 miss"));
    }

    #[test]
    fn clear_preserves_stats() {
        let mut m = mem();
        m.access(Addr(0), AccessKind::Load);
        m.clear();
        assert_eq!(m.stats().l1_misses, 1);
        assert!(!m.l1_contains(Addr(0)));
        let r = m.access(Addr(0), AccessKind::Load);
        assert_eq!(r.outcome, AccessOutcome::Memory);
    }

    #[test]
    fn dirty_evictions_count_writebacks() {
        let mut m = mem();
        // Dirty block 0 (set 0), then evict it with two more set-0 fills.
        m.access(Addr(0), AccessKind::Store);
        m.access(Addr(8 * 32), AccessKind::Load);
        m.access(Addr(16 * 32), AccessKind::Load); // evicts dirty block 0
        assert_eq!(m.stats().writebacks, 1, "{}", m.stats());
        // Clean traffic adds no write-backs.
        m.access(Addr(24 * 32), AccessKind::Load);
        assert_eq!(m.stats().writebacks, 1);
    }

    #[test]
    fn tagged_prefetches_resolve_with_fates() {
        let cost = CostModel::default();
        let mut m = mem();
        // Useful: prefetched, landed, demand-hit.
        m.prefetch_tagged_at(Addr(0x200), 0, 7);
        m.access_at(Addr(0x200), AccessKind::Load, cost.memory_cycles + 1);
        // Late: demand access catches the block in flight.
        m.prefetch_tagged_at(Addr(0x400), 1_000_000, 7);
        m.access_at(
            Addr(0x400),
            AccessKind::Load,
            1_000_000 + cost.memory_cycles / 2,
        );
        let outcomes = m.take_outcomes();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].fate, PrefetchFate::Useful);
        assert_eq!(outcomes[0].tag, 7);
        assert!(outcomes[0].resolved_at > outcomes[0].issued_at);
        assert_eq!(outcomes[1].fate, PrefetchFate::Late);
        // Queue drained.
        assert!(m.take_outcomes().is_empty());
    }

    #[test]
    fn tagged_pollution_resolves_on_eviction() {
        let mut m = mem();
        m.prefetch_tagged_at(Addr(0), 0, 3);
        // Land it, then evict it with demand fills of the same set.
        m.access_at(Addr(8 * 32), AccessKind::Load, u64::MAX);
        m.access_at(Addr(16 * 32), AccessKind::Load, u64::MAX);
        m.access_at(Addr(24 * 32), AccessKind::Load, u64::MAX);
        let outcomes = m.take_outcomes();
        assert!(
            outcomes
                .iter()
                .any(|o| o.fate == PrefetchFate::Polluted && o.tag == 3 && o.block == 0),
            "{outcomes:?}"
        );
    }

    #[test]
    fn untagged_prefetches_produce_no_outcomes() {
        let mut m = mem();
        m.prefetch_at(Addr(0x200), 0);
        m.access_at(Addr(0x200), AccessKind::Load, u64::MAX);
        assert!(m.take_outcomes().is_empty());
        assert_eq!(m.stats().prefetches_useful, 1);
    }

    #[test]
    fn tagging_never_perturbs_timing_or_stats() {
        let drive = |tagged: bool| {
            let mut m = mem();
            let mut total = 0u64;
            for i in 0..200u64 {
                let addr = Addr((i % 50) * 64);
                if i % 3 == 0 {
                    if tagged {
                        m.prefetch_tagged_at(addr, i * 10, (i % 4) as u32);
                    } else {
                        m.prefetch_at(addr, i * 10);
                    }
                }
                total += m.access_at(addr, AccessKind::Load, i * 10 + 5).cycles;
            }
            (total, *m.stats())
        };
        assert_eq!(drive(false), drive(true));
    }

    #[test]
    fn hits_attributed_to_prefetched_lines() {
        let mut m = mem();
        // Prefetched line: every hit counts, not just the first.
        m.prefetch(Addr(0x200));
        m.access_at(Addr(0x200), AccessKind::Load, u64::MAX);
        m.access_at(Addr(0x200), AccessKind::Load, u64::MAX);
        // Demand line: hits are not attributed to prefetching.
        m.access_at(Addr(0x600), AccessKind::Load, u64::MAX);
        m.access_at(Addr(0x600), AccessKind::Load, u64::MAX);
        let s = m.stats();
        assert_eq!(s.l1_hits_on_prefetched, 2, "{s}");
        assert_eq!(s.l1_hits, 3);
        assert_eq!(s.prefetches_useful, 1);
    }

    #[test]
    fn stores_and_loads_share_the_cache() {
        let mut m = mem();
        m.access(Addr(0x80), AccessKind::Store);
        let r = m.access(Addr(0x80), AccessKind::Load);
        assert_eq!(r.outcome, AccessOutcome::L1Hit);
    }

    /// A restored hierarchy is bit-identical going forward: export
    /// mid-run (with prefetches in flight and outcomes queued), restore
    /// into a fresh system, and both produce identical results for the
    /// same continuation.
    #[test]
    fn export_restore_resumes_identical_behaviour() {
        let drive_prefix = |m: &mut MemorySystem| {
            for i in 0..60u64 {
                let addr = Addr((i % 17) * 64);
                if i % 3 == 0 {
                    m.prefetch_tagged_at(addr, i * 10, (i % 4) as u32);
                }
                m.access_at(addr, AccessKind::Load, i * 10 + 5);
            }
            // Leave prefetches in flight and outcomes undrained.
            m.prefetch_tagged_at(Addr(0x4000), 601, 9);
            m.prefetch_tagged_at(Addr(0x4400), 602, 9);
        };
        let mut original = mem();
        drive_prefix(&mut original);
        let state = original.export_state();
        assert!(!state.in_flight.is_empty(), "test needs in-flight blocks");
        assert!(state.in_flight.windows(2).all(|w| w[0].0 < w[1].0));
        let mut resumed = mem();
        resumed.restore_state(&state).unwrap();
        assert_eq!(resumed.export_state(), state, "round-trip must be exact");
        for i in 0..80u64 {
            let now = 650 + i * 7;
            let addr = Addr((i % 23) * 64);
            let a = original.access_at(addr, AccessKind::Load, now);
            let b = resumed.access_at(addr, AccessKind::Load, now);
            assert_eq!(a, b, "access {i} diverged after restore");
        }
        assert_eq!(original.stats(), resumed.stats());
        assert_eq!(original.take_outcomes(), resumed.take_outcomes());
        assert_eq!(original.export_state(), resumed.export_state());
    }
}
