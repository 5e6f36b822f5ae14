//! Core data-reference types for the hot-data-stream prefetching system.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace, mirroring Section 2 of Chilimbi & Hirzel, *Dynamic Hot Data
//! Stream Prefetching for General-Purpose Programs* (PLDI 2002):
//!
//! > "A data reference `r` is a load or store of a particular address,
//! > represented as a pair `(r.pc, r.addr)`. The sequence of all data
//! > references during execution is the data reference trace."
//!
//! The central types are:
//!
//! * [`Pc`] — the program counter of a load/store site,
//! * [`Addr`] — the data address it touches,
//! * [`DataRef`] — the `(pc, addr)` pair,
//! * [`Symbol`] and [`SymbolTable`] — dense interning of distinct data
//!   references, so that the Sequitur compressor and the hot-data-stream
//!   analysis can work over small integer alphabets,
//! * [`TraceBuffer`] — an append-only buffer of sampled reference bursts,
//!   the "temporal data reference profile" the profiling phase collects.
//!
//! # Examples
//!
//! ```
//! use hds_trace::{Addr, DataRef, Pc, SymbolTable};
//!
//! let mut table = SymbolTable::new();
//! let a = table.intern(DataRef::new(Pc(0x10), Addr(0x1000)));
//! let b = table.intern(DataRef::new(Pc(0x14), Addr(0x2000)));
//! // Interning the same reference yields the same symbol.
//! assert_eq!(a, table.intern(DataRef::new(Pc(0x10), Addr(0x1000))));
//! assert_ne!(a, b);
//! assert_eq!(table.resolve(a).addr, Addr(0x1000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
pub mod codec;
pub mod hash;
pub mod rng;
mod symbol;
mod types;

pub use buffer::{Burst, TraceBuffer};
pub use symbol::{Symbol, SymbolTable};
pub use types::{AccessKind, Addr, DataRef, Pc};
