//! Seeded inputs: the tenant programs `serve_resident` streams,
//! generated lazily and cut into fixed-size chunks.
//!
//! A tenant is a [`SyntheticWorkload`]. Its shape comes from a fixed
//! ladder indexed by the tenant's position, so every seed serves the
//! same mix: noise working sets of 64 KB to 2 MB on either side of the
//! simulated 256 KB L2, hot fractions of 0.65 to 0.92, and three
//! stream-length ranges. The seed draws each program's structure —
//! stream layout, instruction addresses, heap addresses and traversal
//! order — so runs at different seeds measure different programs of
//! the same kind.

use hds_serve::load::TenantLoad;
use hds_vulcan::{Event, Procedure};
use hds_workloads::{benchmark, Benchmark, Scale, SyntheticConfig, SyntheticWorkload, Workload};

/// Events per chunk, in every workload.
pub const CHUNK_EVENTS: usize = 4_000;

/// A small seeded generator (splitmix64).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// A tenant's program.
#[derive(Clone, Debug, PartialEq)]
pub enum Program {
    /// A seeded synthetic pointer program.
    Synthetic(SyntheticConfig),
    /// One of the paper's benchmarks at paper scale.
    Paper(Benchmark),
}

/// One tenant: its name and program.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Tenant identifier on the wire.
    pub name: String,
    /// The program it streams.
    pub program: Program,
}

/// The paper's benchmarks as tenants, in `order`.
#[must_use]
pub fn paper_tenants(order: &[Benchmark]) -> Vec<TenantSpec> {
    order
        .iter()
        .map(|&b| TenantSpec {
            name: b.name().to_string(),
            program: Program::Paper(b),
        })
        .collect()
}

/// `count` tenant programs of `refs` data references each, their
/// structure drawn from `seed`.
#[must_use]
pub fn tenants(seed: u64, count: usize, refs: u64) -> Vec<TenantSpec> {
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|t| {
            let stream_lo = [10, 14, 18][t % 3];
            TenantSpec {
                name: format!("tenant-{t:03}"),
                program: Program::Synthetic(SyntheticConfig {
                    name: format!("tenant-{t:03}"),
                    seed: rng.next_u64(),
                    data_seed: None,
                    total_refs: refs,
                    stream_count: 96,
                    hot_core: 24,
                    core_weight: 10,
                    stream_len: (stream_lo, stream_lo + 8),
                    hot_fraction: [0.65, 0.75, 0.85, 0.92][t % 4],
                    // 2^11..2^16 blocks of 32 B: 64 KB to 2 MB of noise.
                    noise_blocks: 1 << (11 + t % 6),
                    noise_run: (3, 10),
                    sequential_alloc: t % 5 == 4,
                    work_per_ref: (2, 6),
                    proc_count: 6 + t % 4,
                    pcs_per_stream: 8,
                    refs_per_check: 8,
                    shared_entry: true,
                    phase_period: None,
                    phase_groups: 1,
                }),
            }
        })
        .collect()
}

/// A tenant program, generated as it is consumed and cut into chunks
/// of [`CHUNK_EVENTS`] events (the last may be shorter).
pub struct ChunkSource {
    program: Box<dyn Workload>,
    procedures: Vec<Procedure>,
}

impl ChunkSource {
    /// Starts the tenant's program from its beginning.
    #[must_use]
    pub fn new(spec: &TenantSpec) -> Self {
        let program: Box<dyn Workload> = match &spec.program {
            Program::Synthetic(config) => Box::new(SyntheticWorkload::new(config.clone())),
            Program::Paper(which) => benchmark(*which, Scale::Paper),
        };
        let procedures = program.procedures();
        ChunkSource {
            program,
            procedures,
        }
    }

    /// The program's procedures.
    #[must_use]
    pub fn procedures(&self) -> &[Procedure] {
        &self.procedures
    }

    /// The next chunk, or `None` once the program has ended.
    pub fn next_chunk(&mut self) -> Option<Vec<Event>> {
        let mut chunk = Vec::with_capacity(CHUNK_EVENTS);
        while chunk.len() < CHUNK_EVENTS {
            match self.program.next_event() {
                Some(e) => chunk.push(e),
                None => break,
            }
        }
        (!chunk.is_empty()).then_some(chunk)
    }
}

/// The first `chunks` chunks of a tenant's program, materialized for
/// the standalone reference run.
#[must_use]
pub fn load_prefix(spec: &TenantSpec, chunks: usize) -> TenantLoad {
    let mut source = ChunkSource::new(spec);
    TenantLoad {
        name: spec.name.clone(),
        procedures: source.procedures().to_vec(),
        chunks: (0..chunks).map_while(|_| source.next_chunk()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hds_vulcan::ProgramSource;

    #[test]
    fn same_seed_same_programs() {
        let a = tenants(9, 3, 1_500);
        let b = tenants(9, 3, 1_500);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.program, y.program);
            let (mut sx, mut sy) = (ChunkSource::new(x), ChunkSource::new(y));
            assert_eq!(sx.next_chunk(), sy.next_chunk());
        }
        assert_ne!(a[0].program, tenants(10, 1, 1_500)[0].program);
    }

    #[test]
    fn chunks_concatenate_to_the_program() {
        let spec = &tenants(3, 1, 3_000)[0];
        let load = load_prefix(spec, usize::MAX);
        let Program::Synthetic(config) = &spec.program else {
            unreachable!("tenants are synthetic")
        };
        let mut whole = SyntheticWorkload::new(config.clone());
        let mut events = Vec::new();
        while let Some(e) = whole.next_event() {
            events.push(e);
        }
        assert!(load.chunks.len() > 1);
        assert!(load.chunks.iter().all(|c| c.len() <= CHUNK_EVENTS));
        assert_eq!(load.all_events(), events);
    }
}
