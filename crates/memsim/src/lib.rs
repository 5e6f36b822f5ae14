//! Two-level set-associative cache simulator with a cycle cost model and
//! baseline prefetchers.
//!
//! This crate is the reproduction's stand-in for the paper's hardware: a
//! 550 MHz Pentium III with "256 KB, 8-way L2, and 16 KB, 4-way L1 data
//! cache, both with 32 byte cache blocks" (§4.1), and the `prefetcht0`
//! instruction, which fills *both* levels of the hierarchy. Everything
//! the prefetching scheme is measured on — hits, misses, pollution,
//! prefetch timeliness, cycle counts — is modelled here, deterministically.
//!
//! Contents:
//!
//! * [`CacheConfig`], [`Cache`] — one set-associative LRU level;
//! * [`MemorySystem`], [`HierarchyConfig`] — the two-level hierarchy with
//!   an in-flight prefetch queue (a prefetch issued too late still
//!   stalls; §1's timeliness requirement is a first-class concept);
//! * [`CostModel`] — cycle charges for work instructions, cache levels,
//!   dynamic checks, and prefetch issue;
//! * [`prefetcher`] — the related-work baselines: next-block sequential,
//!   stride \[7\], and Markov/correlation digram \[16\] prefetchers.
//!
//! # Examples
//!
//! ```
//! use hds_memsim::{AccessOutcome, HierarchyConfig, MemorySystem};
//! use hds_trace::{AccessKind, Addr};
//!
//! let mut mem = MemorySystem::new(HierarchyConfig::pentium_iii());
//! // A cold access goes to memory...
//! let first = mem.access(Addr(0x1000), AccessKind::Load);
//! assert_eq!(first.outcome, AccessOutcome::Memory);
//! // ...and the block is then L1-resident.
//! let second = mem.access(Addr(0x1010), AccessKind::Load);
//! assert_eq!(second.outcome, AccessOutcome::L1Hit);
//! assert!(second.cycles < first.cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod cost;
mod hierarchy;
pub mod prefetcher;
mod stream_buffer;

pub use cache::{Cache, CacheConfig, CacheState, LineState, StateError, StateProblem};
pub use cost::CostModel;
pub use hierarchy::{
    AccessOutcome, AccessResult, HierarchyConfig, MemState, MemStats, MemorySystem, PrefetchFate,
    PrefetchResolution,
};
pub use stream_buffer::{StreamBufferMemory, StreamBufferStats};
