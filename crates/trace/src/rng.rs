//! Seeded draws shared by every fault plan in the workspace: the
//! xorshift64* generator and the per-mille fault roll. Each caller seeds
//! the generator with its own expression, which it takes as given, so a
//! schedule replays exactly from its seed.

/// A xorshift64* generator: a 64-bit xorshift state (shifts 13, 7, 17)
/// whose output is scrambled by one multiply.
///
/// A zero state is a fixed point (every draw is 0), so callers that
/// need a live stream seed with a nonzero expression such as
/// `seed | 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XorShift64Star {
    state: u64,
}

impl XorShift64Star {
    /// A generator starting from `state`, exactly as given.
    #[must_use]
    pub const fn new(state: u64) -> Self {
        XorShift64Star { state }
    }

    /// The current state; `XorShift64Star::new(g.state())` continues
    /// the same stream.
    #[must_use]
    pub const fn state(&self) -> u64 {
        self.state
    }

    /// Steps the state and returns the next draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A seeded per-mille draw over `N` fault classes under a fault budget.
///
/// Each [`FaultRoll::draw`] takes one number from `rng`, reduces it to
/// a roll in `0..1000`, and fires the first eligible class whose
/// cumulative rate exceeds the roll. At most one class fires per draw;
/// once `max_faults` have fired, draws return `None` without consuming
/// the generator.
#[derive(Clone, Debug)]
pub struct FaultRoll<const N: usize> {
    /// The generator; a fired fault draws its parameters (which byte
    /// to flip, where to cut a write) from it too.
    pub rng: XorShift64Star,
    /// Per-class rate, per mille of draws.
    pub rates: [u32; N],
    /// Faults allowed to fire in all.
    pub max_faults: u64,
    /// Faults fired so far, per class.
    pub counts: [u64; N],
}

impl<const N: usize> FaultRoll<N> {
    /// A roll from generator state `state` with per-class `rates` and a
    /// budget of `max_faults`.
    #[must_use]
    pub const fn new(state: u64, rates: [u32; N], max_faults: u64) -> Self {
        FaultRoll {
            rng: XorShift64Star::new(state),
            rates,
            max_faults,
            counts: [0; N],
        }
    }

    /// Faults fired so far, over every class.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Draws at most one class out of `eligible`, in the given order.
    pub fn draw(&mut self, eligible: impl IntoIterator<Item = usize>) -> Option<usize> {
        if self.injected() >= self.max_faults {
            return None;
        }
        let roll = self.rng.next_u64() % 1000;
        let mut floor = 0u64;
        for class in eligible {
            floor += u64::from(self.rates[class]);
            if roll < floor {
                self.counts[class] += 1;
                return Some(class);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The step every pre-consolidation copy inlined, spelled out so a
    /// botched edit of the shared generator cannot hide.
    fn reference(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[test]
    fn generator_matches_the_reference_step() {
        for seed in [1u64, 0xA5A5, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            let mut g = XorShift64Star::new(seed);
            let mut r = seed;
            for _ in 0..100 {
                assert_eq!(g.next_u64(), reference(&mut r));
                assert_eq!(g.state(), r);
            }
        }
        let mut zero = XorShift64Star::new(0);
        assert_eq!((zero.next_u64(), zero.state()), (0, 0));
    }

    #[test]
    fn roll_fires_eligible_classes_within_budget() {
        let mut roll = FaultRoll::new(7, [1000, 0, 0], 3);
        assert_eq!(roll.draw([1, 2]), None, "ineligible class never fires");
        for _ in 0..3 {
            assert_eq!(roll.draw(0..3), Some(0));
        }
        let state = roll.rng.state();
        assert_eq!(roll.draw(0..3), None);
        assert_eq!(roll.rng.state(), state, "a spent budget draws nothing");
        assert_eq!((roll.injected(), roll.counts), (3, [3, 0, 0]));
    }
}
