//! Criterion bench: memory-hierarchy simulator throughput.
//!
//! Every simulated reference goes through the two-level hierarchy, so
//! the simulator's own speed sets how big the experiments can be.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hds_memsim::{HierarchyConfig, MemorySystem};
use hds_trace::{AccessKind, Addr};

fn addresses(n: usize, span_blocks: u64) -> Vec<Addr> {
    let mut state = 0x1234_5678u64;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Addr((state % span_blocks) * 32)
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_access");
    for (name, span) in [
        ("l1_resident", 256u64),
        ("l2_resident", 4_096),
        ("thrashing", 1 << 17),
    ] {
        let addrs = addresses(100_000, span);
        group.throughput(Throughput::Elements(addrs.len() as u64));
        group.bench_with_input(BenchmarkId::new(name, span), &addrs, |b, addrs| {
            b.iter(|| {
                let mut mem = MemorySystem::new(HierarchyConfig::pentium_iii());
                let mut cycles = 0u64;
                for &a in addrs {
                    cycles += mem.access(a, AccessKind::Load).cycles;
                }
                cycles
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("prefetch_issue");
    let addrs = addresses(50_000, 1 << 15);
    group.throughput(Throughput::Elements(addrs.len() as u64));
    group.bench_function("timed_prefetch_then_access", |b| {
        b.iter(|| {
            let mut mem = MemorySystem::new(HierarchyConfig::pentium_iii());
            let mut now = 0u64;
            for &a in &addrs {
                now += 3;
                mem.prefetch_at(a, now);
                now += mem.access_at(a, AccessKind::Load, now + 50).cycles;
            }
            mem.stats().prefetches_useful
        });
    });
    // Redundant prefetches: every issue targets a block already in L1,
    // as most of a stream-tail run's issues do, so each one is a probe
    // that hits and nothing more.
    let resident = addresses(50_000, 256);
    group.bench_function("redundant_l1", |b| {
        b.iter(|| {
            let mut mem = MemorySystem::new(HierarchyConfig::pentium_iii());
            for block in 0..256 {
                mem.access(Addr(block * 32), AccessKind::Load);
            }
            let mut now = 0u64;
            for &a in &resident {
                now += 1;
                now += mem.prefetch_at(a, now);
            }
            mem.stats().l1_misses
        });
    });
    // A stream tail: a burst of 16 prefetches, then the accesses that
    // use them, so every access probes a populated in-flight table and
    // the burst lands piecemeal as the accesses advance the clock.
    group.bench_function("stream_tail_burst_16", |b| {
        b.iter(|| {
            let mut mem = MemorySystem::new(HierarchyConfig::pentium_iii());
            let mut now = 0u64;
            for burst in addrs.chunks(16) {
                for &a in burst {
                    now += 1;
                    mem.prefetch_at(a, now);
                }
                for &a in burst {
                    now += 3;
                    now += mem.access_at(a, AccessKind::Load, now).cycles;
                }
            }
            mem.stats().prefetches_useful
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
