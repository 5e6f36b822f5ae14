//! Incremental Sequitur grammar compression for online temporal
//! data-reference profiles.
//!
//! Sequitur (Nevill-Manning & Witten) constructs, in linear time and
//! incrementally, a context-free grammar whose language is exactly one
//! word: the input string. The grammar exposes the hierarchical repetition
//! structure of the input, which the hot-data-stream analysis
//! (`hds-hotstream`) exploits.
//!
//! The algorithm maintains two invariants after every appended symbol:
//!
//! 1. **Digram uniqueness** — no pair of adjacent symbols occurs more than
//!    once in the grammar (overlapping occurrences excepted);
//! 2. **Rule utility** — every rule other than the start rule is used at
//!    least twice.
//!
//! The paper (§2.3) uses Sequitur online: traced data references are
//! appended one at a time ("It is incremental (we can append one symbol at
//! a time) and deterministic"), and the analysis then runs over the
//! resulting grammar. This crate provides:
//!
//! * [`Sequitur`] — the incremental compressor, appending [`hds_trace::Symbol`]s;
//! * [`Grammar`], [`Rule`], [`GSym`] — an immutable snapshot of the
//!   grammar as a DAG, the form consumed by the analysis;
//! * invariant checking ([`Sequitur::check_invariants`]) used heavily by
//!   the property-test suite, and by the optimizer on every profiled
//!   grammar in debug builds.
//!
//! # Examples
//!
//! Reproducing the paper's Figure 4 (`w = abaabcabcabcabc`):
//!
//! ```
//! use hds_sequitur::Sequitur;
//! use hds_trace::Symbol;
//!
//! let (a, b, c) = (Symbol(0), Symbol(1), Symbol(2));
//! let mut seq = Sequitur::new();
//! for s in [a, b, a, a, b, c, a, b, c, a, b, c, a, b, c] {
//!     seq.append(s);
//! }
//! // The grammar expands back to the input...
//! assert_eq!(
//!     seq.expand_start(),
//!     vec![a, b, a, a, b, c, a, b, c, a, b, c, a, b, c]
//! );
//! // ...and discovered the hierarchical structure of Figure 4:
//! // S -> A a B B,  A -> a b,  B -> C C,  C -> A c.
//! let g = seq.grammar();
//! assert_eq!(g.rule_count(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod grammar;

pub use engine::Sequitur;
pub use grammar::{GSym, Grammar, Rule, RuleId};
