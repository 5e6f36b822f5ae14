//! Pinned digests of the grammars the engine builds.
//!
//! Each test folds, at fixed points, `Grammar::render()`, `rule_count()`
//! and `grammar_size()` into one FNV-1a digest and compares it with a
//! literal. Any change to which rules the engine creates, reuses or
//! inlines, to their numbering, or to body order moves the digest, so an
//! engine rewrite that passes these tests builds the same grammars as
//! the one that pinned them.
//!
//! * `paper_programs_per_window` feeds the data references of the six
//!   test-scale benchmark programs through a fresh `SymbolTable` and a
//!   fresh `Sequitur` per 4,096-reference window, as the executor resets
//!   both at every profiling phase.
//! * `seeded_strings` covers alphabets of 1 to 256 symbols (the
//!   one-symbol alphabet gives the long runs Sequitur compresses only
//!   partially) with strings that mix fresh symbols and copies of earlier
//!   stretches, digested every 97 appends.

use hds_sequitur::Sequitur;
use hds_trace::hash::fnv1a64;
use hds_trace::{Symbol, SymbolTable};
use hds_vulcan::Event;
use hds_workloads::{benchmark, Benchmark, Scale};

/// Folds `bytes` into the running digest `h`.
fn fold(h: u64, bytes: &[u8]) -> u64 {
    let mut buf = h.to_le_bytes().to_vec();
    buf.extend_from_slice(bytes);
    fnv1a64(&buf)
}

/// Folds the engine's current grammar and counts into `h`.
fn fold_grammar(h: u64, seq: &Sequitur) -> u64 {
    let h = fold(h, seq.grammar().render().as_bytes());
    let h = fold(h, &(seq.rule_count() as u64).to_le_bytes());
    fold(h, &(seq.grammar_size() as u64).to_le_bytes())
}

const WINDOW: usize = 4_096;

#[test]
fn paper_programs_per_window() {
    let mut h = 0u64;
    let mut windows = 0u32;
    for b in Benchmark::ALL {
        let mut program = benchmark(b, Scale::Test);
        let mut symbols = SymbolTable::new();
        let mut seq = Sequitur::new();
        let mut in_window = 0usize;
        while let Some(event) = program.next_event() {
            let Event::Access(r, _) = event else {
                continue;
            };
            seq.append(symbols.intern(r));
            in_window += 1;
            if in_window == WINDOW {
                h = fold_grammar(h, &seq);
                windows += 1;
                symbols = SymbolTable::new();
                seq = Sequitur::new();
                in_window = 0;
            }
        }
        if in_window > 0 {
            h = fold_grammar(h, &seq);
            windows += 1;
        }
    }
    assert_eq!(windows, 90, "window count moved");
    assert_eq!(
        h, 0xa6c3_3f71_bcc8_1c11,
        "grammar digest over the paper programs moved"
    );
}

/// SplitMix64: a seeded generator pinned here, so the inputs cannot
/// move with any dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A seeded string over `alphabet` symbols: half the steps draw a fresh
/// symbol, the other half copy a stretch of 2 to 24 earlier symbols, so
/// rules nest and get reused and inlined as they do on real traces.
fn seeded_string(alphabet: u32, len: usize, seed: u64) -> Vec<Symbol> {
    let mut rng = SplitMix(seed);
    let mut out: Vec<Symbol> = Vec::with_capacity(len);
    while out.len() < len {
        if out.len() < 2 || rng.below(2) == 0 {
            out.push(Symbol(rng.below(u64::from(alphabet)) as u32));
        } else {
            let span = 2 + rng.below(23) as usize;
            let start = rng.below(out.len() as u64) as usize;
            let end = (start + span).min(out.len());
            out.extend_from_within(start..end);
        }
    }
    out.truncate(len);
    out
}

#[test]
fn seeded_strings() {
    let mut h = 0u64;
    for alphabet in [1u32, 2, 3, 4, 16, 256] {
        for (seed, len) in [(1u64, 5_000usize), (2, 1_999), (3, 313)] {
            let input = seeded_string(alphabet, len, seed * 1_000 + u64::from(alphabet));
            let mut seq = Sequitur::new();
            for (i, &s) in input.iter().enumerate() {
                seq.append(s);
                if (i + 1) % 97 == 0 {
                    h = fold_grammar(h, &seq);
                }
            }
            h = fold_grammar(h, &seq);
            assert_eq!(seq.expand_start(), input, "round trip, alphabet {alphabet}");
        }
    }
    assert_eq!(
        h, 0xc9f4_ca8d_3ca7_cf09,
        "grammar digest over the seeded strings moved"
    );
}
