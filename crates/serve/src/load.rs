//! Seeded open-loop load generation for the serving front-end.
//!
//! Produces K tenants × M chunks of stream-shaped trace events,
//! deterministic in the seed, plus the standalone reference runner the
//! determinism tests and `bench_serve` compare against: for every
//! tenant, the concatenation of its chunks *is* its standalone
//! program, so serving it through any shard/eviction schedule must
//! reproduce the standalone `RunReport` and image digest bit for bit.

use hds_core::{Observer, OptimizerConfig, RunMode, RunReport, SessionBuilder};
use hds_trace::rng::XorShift64Star;
use hds_trace::{AccessKind, Addr, DataRef, Pc};
use hds_vulcan::{Event, ProcId, Procedure};

/// A load-generation configuration rejected by [`generate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum LoadError {
    /// Zero tenants: there is no load to generate.
    ZeroTenants,
    /// Zero chunks per tenant: a tenant would have no stream.
    ZeroChunks,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::ZeroTenants => f.write_str("load config has zero tenants"),
            LoadError::ZeroChunks => f.write_str("load config has zero chunks per tenant"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Shape of the generated load.
#[derive(Clone, Copy, Debug)]
pub struct LoadConfig {
    /// Number of tenants (K).
    pub tenants: u32,
    /// Chunks per tenant (M).
    pub chunks_per_tenant: u32,
    /// Approximate events per chunk.
    pub events_per_chunk: u32,
    /// Seed: same seed, same load, byte for byte.
    pub seed: u64,
}

/// One tenant's generated program, pre-split into wire chunks.
#[derive(Clone, Debug)]
pub struct TenantLoad {
    /// Tenant identifier.
    pub name: String,
    /// The tenant's program image.
    pub procedures: Vec<Procedure>,
    /// The event stream, split into chunks; the concatenation is the
    /// tenant's full program.
    pub chunks: Vec<Vec<Event>>,
}

impl TenantLoad {
    /// The full event stream (chunks concatenated).
    #[must_use]
    pub fn all_events(&self) -> Vec<Event> {
        self.chunks.iter().flatten().copied().collect()
    }
}

/// Generates the tenant loads: each tenant loops over its own hot data
/// stream (the shape the optimizer is built to detect), with
/// seed-derived pc/address bases so tenants do not alias.
///
/// # Errors
///
/// [`LoadError`] for a degenerate shape.
pub fn generate(cfg: &LoadConfig) -> Result<Vec<TenantLoad>, LoadError> {
    if cfg.tenants == 0 {
        return Err(LoadError::ZeroTenants);
    }
    if cfg.chunks_per_tenant == 0 {
        return Err(LoadError::ZeroChunks);
    }
    let total_events = u64::from(cfg.chunks_per_tenant) * u64::from(cfg.events_per_chunk).max(1);
    let mut out = Vec::with_capacity(cfg.tenants as usize);
    for t in 0..cfg.tenants {
        let name = format!("tenant-{t:03}");
        let mut rng = XorShift64Star::new(
            cfg.seed ^ (u64::from(t).wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ 0xA5A5,
        );
        #[allow(clippy::cast_possible_truncation)]
        let pc_base = 16 + (rng.next_u64() % 4096) as u32 * 4;
        let addr_base = 0x1_0000 + (rng.next_u64() % (1 << 20)) * 64;
        let pcs: Vec<Pc> = (0..4).map(|i| Pc(pc_base + i * 4)).collect();
        let stream: Vec<DataRef> = (0..8u64)
            .map(|k| DataRef::new(pcs[(k % 4) as usize], Addr(addr_base + k * 256)))
            .collect();
        // One rep = Enter, 8 accesses with back-edges every third, Exit.
        let mut events = Vec::new();
        while (events.len() as u64) < total_events {
            events.push(Event::Enter(ProcId(0)));
            for (i, &r) in stream.iter().enumerate() {
                if i % 3 == 0 {
                    events.push(Event::BackEdge(ProcId(0)));
                }
                events.push(Event::Work(2));
                events.push(Event::Access(r, AccessKind::Load));
            }
            events.push(Event::Exit(ProcId(0)));
        }
        let chunk_len = events.len().div_ceil(cfg.chunks_per_tenant as usize).max(1);
        let chunks: Vec<Vec<Event>> = events.chunks(chunk_len).map(<[Event]>::to_vec).collect();
        out.push(TenantLoad {
            name,
            procedures: vec![Procedure::new(format!("looper-{t:03}"), pcs)],
            chunks,
        });
    }
    Ok(out)
}

/// Runs one tenant's full stream through a standalone checkpointed
/// [`SessionBuilder`] session — the reference every served lineage
/// must match bit for bit. Returns the report and the image digest at
/// finish time.
#[must_use]
pub fn standalone_reference(
    optimizer: &OptimizerConfig,
    mode: RunMode,
    load: &TenantLoad,
) -> (RunReport, u64) {
    standalone_reference_observed(optimizer, mode, load, hds_core::NullObserver)
}

/// [`standalone_reference`] with an observer attached.
pub fn standalone_reference_observed<O: Observer>(
    optimizer: &OptimizerConfig,
    mode: RunMode,
    load: &TenantLoad,
    obs: O,
) -> (RunReport, u64) {
    let mut session = SessionBuilder::new(optimizer.clone())
        .procedures(load.procedures.clone())
        .observer(obs)
        .checkpoints()
        .mode(mode)
        .build();
    for chunk in &load.chunks {
        for &event in chunk {
            session.on_event(event);
        }
    }
    let digest = session.image_digest();
    (session.finish(&load.name), digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_shaped() {
        let cfg = LoadConfig {
            tenants: 3,
            chunks_per_tenant: 4,
            events_per_chunk: 50,
            seed: 7,
        };
        let a = generate(&cfg).unwrap();
        let b = generate(&cfg).unwrap();
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.chunks, y.chunks);
            assert_eq!(x.procedures, y.procedures);
            assert_eq!(x.chunks.len(), 4);
            assert!(x.all_events().len() >= 200);
        }
        // Tenants do not share address space.
        assert_ne!(a[0].chunks[0], a[1].chunks[0]);
    }

    #[test]
    fn degenerate_shapes_are_typed_errors() {
        let zero_tenants = LoadConfig {
            tenants: 0,
            chunks_per_tenant: 1,
            events_per_chunk: 1,
            seed: 0,
        };
        assert_eq!(generate(&zero_tenants).unwrap_err(), LoadError::ZeroTenants);
        let zero_chunks = LoadConfig {
            tenants: 1,
            chunks_per_tenant: 0,
            events_per_chunk: 1,
            seed: 0,
        };
        assert_eq!(generate(&zero_chunks).unwrap_err(), LoadError::ZeroChunks);
    }
}
