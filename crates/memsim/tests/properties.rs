//! Property tests for the cache simulator: the set-associative LRU cache
//! and the whole two-level hierarchy agree with a naive reference model,
//! and hierarchy invariants hold on random access/prefetch interleavings.

use hds_memsim::{
    AccessOutcome, AccessResult, Cache, CacheConfig, CacheState, HierarchyConfig, LineState,
    MemState, MemStats, MemorySystem, PrefetchFate, PrefetchResolution,
};
use hds_trace::{AccessKind, Addr};
use proptest::prelude::*;

/// Naive reference level: per set, the resident lines ordered
/// most-recent-first, each carrying its three flags, the way it occupies
/// (`slot`, the residency order) and its LRU stamp.
struct RefLevel {
    sets: Vec<Vec<(usize, LineState)>>,
    assoc: usize,
    block_size: u64,
    num_sets: u64,
    tick: u64,
}

impl RefLevel {
    fn new(config: CacheConfig) -> Self {
        RefLevel {
            sets: vec![Vec::new(); config.num_sets() as usize],
            assoc: config.assoc as usize,
            block_size: config.block_size,
            num_sets: config.num_sets(),
            tick: 0,
        }
    }

    /// The set of `addr` and the position of its block in the MRU list.
    fn find(&self, addr: Addr) -> (usize, u64, Option<usize>) {
        let block = addr.0 / self.block_size;
        let set = (block % self.num_sets) as usize;
        let pos = self.sets[set].iter().position(|(_, l)| l.block == block);
        (set, block, pos)
    }

    fn contains(&self, addr: Addr) -> bool {
        self.find(addr).2.is_some()
    }

    /// A demand touch: the line as it was before, or `None` on a miss.
    fn touch(&mut self, addr: Addr, write: bool) -> Option<LineState> {
        self.tick += 1;
        let (set, _, pos) = self.find(addr);
        let (slot, mut line) = self.sets[set].remove(pos?);
        let before = line;
        line.lru = self.tick;
        line.prefetched_unused = false;
        line.dirty |= write;
        self.sets[set].insert(0, (slot, line));
        Some(before)
    }

    /// Fills `addr`'s block, returning the evicted line, if any.
    fn fill(&mut self, addr: Addr, prefetched: bool) -> Option<LineState> {
        self.tick += 1;
        let (set, block, pos) = self.find(addr);
        if let Some(pos) = pos {
            let (slot, mut line) = self.sets[set].remove(pos);
            line.lru = self.tick;
            self.sets[set].insert(0, (slot, line));
            return None;
        }
        let (slot, victim) = if self.sets[set].len() < self.assoc {
            (self.sets[set].len(), None)
        } else {
            let (slot, victim) = self.sets[set].pop().expect("full set");
            (slot, Some(victim))
        };
        let line = LineState {
            block,
            lru: self.tick,
            prefetched_unused: prefetched,
            origin_prefetched: prefetched,
            dirty: false,
        };
        self.sets[set].insert(0, (slot, line));
        victim
    }

    fn clear(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
        self.tick = 0;
    }

    fn export(&self) -> CacheState {
        let sets = self
            .sets
            .iter()
            .map(|set| {
                let mut lines = set.clone();
                lines.sort_by_key(|&(slot, _)| slot);
                lines.into_iter().map(|(_, l)| l).collect()
            })
            .collect();
        CacheState {
            tick: self.tick,
            sets,
        }
    }
}

/// Naive reference hierarchy, written from the documented semantics:
/// prefetches land in block order once due, tracked prefetches resolve
/// as useful, late or polluted, and stores dirty their line.
struct RefMemory {
    config: HierarchyConfig,
    l1: RefLevel,
    l2: RefLevel,
    /// `(block, completion time)` in issue order.
    in_flight: Vec<(u64, u64)>,
    /// `(block, tag, issued_at)` in issue order.
    pending: Vec<(u64, u32, u64)>,
    outcomes: Vec<PrefetchResolution>,
    stats: MemStats,
}

impl RefMemory {
    fn new(config: HierarchyConfig) -> Self {
        RefMemory {
            l1: RefLevel::new(config.l1),
            l2: RefLevel::new(config.l2),
            config,
            in_flight: Vec::new(),
            pending: Vec::new(),
            outcomes: Vec::new(),
            stats: MemStats::default(),
        }
    }

    fn resolve(&mut self, block: u64, fate: PrefetchFate, now: u64) {
        if let Some(pos) = self.pending.iter().position(|p| p.0 == block) {
            let (_, tag, issued_at) = self.pending.remove(pos);
            self.outcomes.push(PrefetchResolution {
                tag,
                block,
                fate,
                issued_at,
                resolved_at: now,
            });
        }
    }

    fn land(&mut self, now: u64) {
        let mut due: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|f| f.1 <= now)
            .map(|f| f.0)
            .collect();
        due.sort_unstable();
        self.in_flight.retain(|f| f.1 > now);
        for block in due {
            self.fill_both(Addr(block * self.config.l1.block_size), true, now);
        }
    }

    fn fill_l1(&mut self, addr: Addr, prefetched: bool, now: u64) {
        if let Some(victim) = self.l1.fill(addr, prefetched) {
            if victim.prefetched_unused {
                self.stats.prefetches_polluting += 1;
                self.resolve(victim.block, PrefetchFate::Polluted, now);
            }
            if victim.dirty {
                self.stats.writebacks += 1;
            }
        }
    }

    fn fill_both(&mut self, addr: Addr, prefetched: bool, now: u64) {
        self.fill_l1(addr, prefetched, now);
        self.l2.fill(addr, prefetched);
    }

    fn access_at(&mut self, addr: Addr, kind: AccessKind, now: u64) -> AccessResult {
        let cost = self.config.cost;
        let store = kind == AccessKind::Store;
        let block = addr.0 / self.config.l1.block_size;
        self.land(now);
        let (outcome, cycles) = if let Some(pos) = self.in_flight.iter().position(|f| f.0 == block)
        {
            let (_, done) = self.in_flight.remove(pos);
            self.resolve(block, PrefetchFate::Late, now);
            self.fill_both(addr, false, now);
            self.stats.prefetches_late += 1;
            self.stats.prefetches_useful += 1;
            self.stats.l1_misses += 1;
            self.stats.l2_misses += 1;
            let cycles = cost.l1_hit_cycles + done.saturating_sub(now);
            (AccessOutcome::LatePrefetch, cycles)
        } else if let Some(line) = self.l1.touch(addr, store) {
            self.stats.l1_hits += 1;
            self.stats.l1_hits_on_prefetched += u64::from(line.origin_prefetched);
            if line.prefetched_unused {
                self.stats.prefetches_useful += 1;
                self.resolve(block, PrefetchFate::Useful, now);
            }
            self.stats.demand_cycles += cost.l1_hit_cycles;
            return AccessResult {
                outcome: AccessOutcome::L1Hit,
                cycles: cost.l1_hit_cycles,
            };
        } else if self.l2.touch(addr, false).is_some() {
            self.stats.l1_misses += 1;
            self.stats.l2_hits += 1;
            self.fill_l1(addr, false, now);
            (AccessOutcome::L2Hit, cost.l2_total_cycles())
        } else {
            self.stats.l1_misses += 1;
            self.stats.l2_misses += 1;
            self.fill_both(addr, false, now);
            (AccessOutcome::Memory, cost.full_miss_cycles())
        };
        // Write-allocate: the filled line is dirtied by a second touch.
        if store {
            self.l1.touch(addr, true);
        }
        self.stats.demand_cycles += cycles;
        AccessResult { outcome, cycles }
    }

    fn prefetch(&mut self, addr: Addr, now: u64, tag: Option<u32>) -> u64 {
        let cost = self.config.cost;
        let block = addr.0 / self.config.l1.block_size;
        self.land(now);
        self.stats.prefetches_issued += 1;
        if self.l1.contains(addr) {
            return cost.prefetch_issue_cycles;
        }
        if let Some(tag) = tag {
            if !self.pending.iter().any(|p| p.0 == block) {
                self.pending.push((block, tag, now));
            }
        }
        if self.l2.contains(addr) {
            self.fill_l1(addr, true, now);
        } else if !self.in_flight.iter().any(|f| f.0 == block) {
            self.in_flight
                .push((block, now.saturating_add(cost.memory_cycles)));
        }
        cost.prefetch_issue_cycles
    }

    fn clear(&mut self) {
        self.l1.clear();
        self.l2.clear();
        self.in_flight.clear();
        self.pending.clear();
    }

    fn export(&self) -> MemState {
        let mut in_flight = self.in_flight.clone();
        in_flight.sort_unstable();
        let mut pending = self.pending.clone();
        pending.sort_unstable();
        MemState {
            l1: self.l1.export(),
            l2: self.l2.export(),
            in_flight,
            pending,
            outcomes: self.outcomes.clone(),
            stats: self.stats,
        }
    }
}

/// One step of an arbitrary interleaving. Timed steps advance a clock;
/// untimed ones use the documented `now` (`u64::MAX` for accesses, `0`
/// for prefetches).
#[derive(Clone, Debug)]
enum Op {
    Access {
        pick: u64,
        store: bool,
        dt: Option<u64>,
    },
    Prefetch {
        pick: u64,
        dt: Option<u64>,
        tag: Option<u32>,
    },
    InstallL1(u64),
    Clear,
    RoundTrip,
}

fn op() -> impl Strategy<Value = Op> {
    // Half the picks come from a hot pool of a few blocks per L1 set.
    let pick = prop_oneof![0u64..24, 0u64..1 << 20];
    (0u8..16, pick, 0u64..150, 0u32..6).prop_map(|(kind, pick, dt, tag)| {
        let dt = (dt < 120).then_some(dt); // else untimed
        let tag = (tag < 4).then_some(tag); // else untagged
        match kind {
            0..=7 => Op::Access {
                pick,
                store: kind % 2 == 1,
                dt,
            },
            8..=12 => Op::Prefetch { pick, dt, tag },
            13 => Op::InstallL1(pick),
            14 => Op::Clear,
            _ => Op::RoundTrip,
        }
    })
}

/// An address from a pool small enough to conflict: a few L1 sets, and
/// twice as many blocks per L2 set as it has ways.
fn addr_of(config: &HierarchyConfig, pick: u64) -> Addr {
    let stride = config.l1.num_sets();
    let per_set = 2 * u64::from(config.l2.assoc) * (config.l2.num_sets() / stride).max(1);
    let block = pick % 3 + stride * ((pick / 3) % per_set);
    Addr(block * config.l1.block_size + (pick >> 12) % config.l1.block_size)
}

/// Drives the hierarchy and the reference through `ops`, comparing every
/// result, the statistics, the drained outcomes and the exported state
/// after each step.
fn check_against_reference(config: HierarchyConfig, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut mem = MemorySystem::new(config.clone());
    let mut reference = RefMemory::new(config.clone());
    let mut now = 0u64;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Access { pick, store, dt } => {
                let addr = addr_of(&config, pick);
                let kind = if store {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                let got = match dt {
                    Some(dt) => {
                        now += dt;
                        mem.access_at(addr, kind, now)
                    }
                    None => mem.access(addr, kind),
                };
                let want = reference.access_at(addr, kind, dt.map_or(u64::MAX, |_| now));
                prop_assert_eq!(got, want, "step {}: {:?}", i, op);
            }
            Op::Prefetch { pick, dt, tag } => {
                let addr = addr_of(&config, pick);
                let at = match dt {
                    Some(dt) => {
                        now += dt;
                        now
                    }
                    None => 0,
                };
                let got = match (dt, tag) {
                    (None, None) => mem.prefetch(addr),
                    (_, Some(tag)) => mem.prefetch_tagged_at(addr, at, tag),
                    (Some(_), None) => mem.prefetch_at(addr, at),
                };
                let want = reference.prefetch(addr, at, tag);
                prop_assert_eq!(got, want, "step {}: {:?}", i, op);
            }
            Op::InstallL1(pick) => {
                let addr = addr_of(&config, pick);
                mem.install_l1(addr);
                reference.fill_l1(addr, false, 0);
            }
            Op::Clear => {
                mem.clear();
                reference.clear();
            }
            Op::RoundTrip => {
                let state = mem.export_state();
                mem = MemorySystem::new(config.clone());
                prop_assert!(mem.restore_state(&state).is_ok());
            }
        }
        prop_assert_eq!(mem.stats(), &reference.stats, "step {}: {:?}", i, op);
        prop_assert_eq!(
            mem.take_outcomes(),
            std::mem::take(&mut reference.outcomes),
            "step {}: {:?}",
            i,
            op
        );
        prop_assert_eq!(
            mem.export_state(),
            reference.export(),
            "step {}: {:?}",
            i,
            op
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The production cache and the naive MRU-list model agree on every
    /// hit/miss and on the exported state over random access sequences
    /// (fill-on-miss policy).
    #[test]
    fn cache_matches_reference_model(
        addrs in proptest::collection::vec(0u64..2048, 1..400),
    ) {
        let config = CacheConfig::new(256, 2, 32); // 4 sets, tiny => heavy eviction
        let mut cache = Cache::new(config);
        let mut reference = RefLevel::new(config);
        for &a in &addrs {
            let addr = Addr(a);
            let got = cache.access(addr);
            let want = reference.touch(addr, false).is_some();
            prop_assert_eq!(got, want, "divergence at {}", addr);
            if !got {
                cache.fill(addr, false);
                reference.fill(addr, false);
            }
            prop_assert_eq!(cache.export_state(), reference.export());
        }
    }

    /// The whole hierarchy agrees with the reference model on arbitrary
    /// interleavings of timed and untimed loads and stores, timed, tagged
    /// and untimed prefetches, `install_l1`, `clear` and export/restore
    /// round trips — on the tiny and the paper's geometry.
    #[test]
    fn hierarchy_matches_reference_model(
        ops in proptest::collection::vec(op(), 1..300),
        paper in any::<bool>(),
    ) {
        let config = if paper {
            HierarchyConfig::pentium_iii()
        } else {
            HierarchyConfig::tiny()
        };
        check_against_reference(config, &ops)?;
    }

    /// Hierarchy inclusion-ish sanity: an address that hits L1 was
    /// previously brought in; repeating the same access immediately is
    /// always an L1 hit; stats counters add up.
    #[test]
    fn hierarchy_invariants(
        addrs in proptest::collection::vec(0u64..8192, 1..300),
    ) {
        let mut m = MemorySystem::new(HierarchyConfig::tiny());
        for &a in &addrs {
            let addr = Addr(a);
            let _ = m.access(addr, AccessKind::Load);
            let again = m.access(addr, AccessKind::Load);
            prop_assert_eq!(again.outcome, AccessOutcome::L1Hit);
        }
        let s = m.stats();
        prop_assert_eq!(s.l1_hits + s.l1_misses, 2 * addrs.len() as u64);
        prop_assert_eq!(s.l2_hits + s.l2_misses, s.l1_misses);
        prop_assert!(s.demand_cycles >= s.l1_hits + s.l1_misses);
    }

    /// Prefetching never changes functional behaviour, only timing: with
    /// all prefetches landed, demand cycles with prefetching of exactly
    /// the future addresses is never worse than without.
    #[test]
    fn perfect_prefetching_never_hurts(
        addrs in proptest::collection::vec(0u64..4096, 1..200),
    ) {
        let mut plain = MemorySystem::new(HierarchyConfig::tiny());
        let mut fetched = MemorySystem::new(HierarchyConfig::tiny());
        let mut plain_cycles = 0u64;
        let mut fetched_cycles = 0u64;
        for &a in &addrs {
            let addr = Addr(a);
            plain_cycles += plain.access(addr, AccessKind::Load).cycles;
            // Prefetch exactly the block about to be accessed, untimed
            // (fully timely).
            fetched.prefetch(addr);
            fetched_cycles += fetched.access(addr, AccessKind::Load).cycles;
        }
        prop_assert!(fetched_cycles <= plain_cycles,
            "prefetching made things worse: {} > {}", fetched_cycles, plain_cycles);
        prop_assert_eq!(fetched.stats().l1_misses, 0);
    }

    /// Issued-prefetch accounting: useful + polluting never exceeds
    /// issued (late ones are counted useful).
    #[test]
    fn prefetch_accounting_bounds(
        ops in proptest::collection::vec((0u64..2048, proptest::bool::ANY), 1..300),
    ) {
        let mut m = MemorySystem::new(HierarchyConfig::tiny());
        let mut now = 0u64;
        for &(a, is_prefetch) in &ops {
            now += 7;
            if is_prefetch {
                m.prefetch_at(Addr(a), now);
            } else {
                let _ = m.access_at(Addr(a), AccessKind::Load, now);
            }
        }
        let s = m.stats();
        prop_assert!(s.prefetches_useful + s.prefetches_polluting <= s.prefetches_issued + s.prefetches_useful,
            "accounting out of bounds: {}", s);
        prop_assert!(s.prefetches_late <= s.prefetches_issued);
    }
}

/// The interleaving a cached earliest-completion time can get wrong: a
/// timed prefetch far in the future, then an untimed one (issued at time
/// 0, so due long before it); a timed access between the two due times
/// must land the untimed prefetch.
#[test]
fn untimed_prefetch_lands_before_a_later_timed_one() {
    let ops = [
        Op::Prefetch {
            pick: 0,
            dt: Some(100_000),
            tag: Some(1),
        },
        Op::Prefetch {
            pick: 1,
            dt: None,
            tag: Some(2),
        },
        Op::Access {
            pick: 2,
            store: false,
            dt: Some(1),
        },
        Op::Access {
            pick: 1,
            store: false,
            dt: Some(1),
        },
    ];
    for config in [HierarchyConfig::tiny(), HierarchyConfig::pentium_iii()] {
        check_against_reference(config, &ops).unwrap();
    }
}
