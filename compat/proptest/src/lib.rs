//! Offline stand-in for `proptest`.
//!
//! Provides deterministic, generate-only property testing: the
//! [`proptest!`] macro runs each property for `ProptestConfig::cases`
//! generated inputs, seeded from the test's module path so failures
//! reproduce exactly. Shrinking is not implemented — a failing case
//! reports the case number; re-running deterministically regenerates
//! the same input. The strategy surface covers what this workspace's
//! property tests use: integer/float ranges, `any::<T>()`, tuples,
//! [`collection::vec`], [`strategy::Just`], `prop_map`, and
//! [`prop_oneof!`].

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Test execution configuration and the per-case RNG.

    /// How many generated cases each property runs.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of generated inputs per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` inputs per property.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// The deterministic per-case random source (SplitMix64).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// An RNG for case `case` of the test named `name` — the same
        /// pair always yields the same sequence.
        #[must_use]
        pub fn for_case(name: &str, case: u32) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng {
                state: h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// A failed property case (returned by the `prop_assert*` macros).
#[derive(Clone, Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// A failure with the given explanation.
    #[must_use]
    pub fn fail<S: Into<String>>(message: S) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

pub mod strategy {
    //! Value-generation strategies and combinators.

    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generates one value.
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Erases the strategy's concrete type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Object-safe strategy view (implementation detail of boxing).
    trait DynStrategy {
        type Value;
        fn gen_dyn(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy> DynStrategy for S {
        type Value = S::Value;
        fn gen_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.gen_value(rng)
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<T>(Box<dyn DynStrategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            self.0.gen_dyn(rng)
        }
    }

    /// Always generates a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn gen_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn gen_value(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.gen_value(rng))
        }
    }

    /// Uniform choice between boxed alternatives (see [`prop_oneof!`]).
    ///
    /// [`prop_oneof!`]: crate::prop_oneof
    pub struct OneOf<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> OneOf<T> {
        /// A strategy choosing uniformly among `options`.
        ///
        /// # Panics
        ///
        /// Panics if `options` is empty.
        #[must_use]
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            OneOf { options }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            let idx = (rng.next_u64() % self.options.len() as u64) as usize;
            self.options[idx].gen_value(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($ty:ty),*) => {$(
            impl Strategy for Range<$ty> {
                type Value = $ty;
                fn gen_value(&self, rng: &mut TestRng) -> $ty {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = self.end.wrapping_sub(self.start) as u64;
                    self.start.wrapping_add((rng.next_u64() % span) as $ty)
                }
            }
            impl Strategy for RangeInclusive<$ty> {
                type Value = $ty;
                fn gen_value(&self, rng: &mut TestRng) -> $ty {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = end.wrapping_sub(start) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $ty;
                    }
                    start.wrapping_add((rng.next_u64() % (span + 1)) as $ty)
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn gen_value(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            self.start + unit * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+)),+) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.gen_value(rng),)+)
                }
            }
        )+};
    }

    impl_tuple_strategy!(
        (A, B),
        (A, B, C),
        (A, B, C, D),
        (A, B, C, D, E),
        (A, B, C, D, E, F),
        (A, B, C, D, E, F, G),
        (A, B, C, D, E, F, G, H),
        (A, B, C, D, E, F, G, H, I),
        (A, B, C, D, E, F, G, H, I, J),
        (A, B, C, D, E, F, G, H, I, J, K),
        (A, B, C, D, E, F, G, H, I, J, K, L)
    );
}

pub mod arbitrary {
    //! `any::<T>()`: full-domain strategies per type.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Generates one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for u8 {
        fn arbitrary(rng: &mut TestRng) -> u8 {
            rng.next_u64() as u8
        }
    }
    impl Arbitrary for u16 {
        fn arbitrary(rng: &mut TestRng) -> u16 {
            rng.next_u64() as u16
        }
    }
    impl Arbitrary for u32 {
        fn arbitrary(rng: &mut TestRng) -> u32 {
            rng.next_u64() as u32
        }
    }
    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> u64 {
            rng.next_u64()
        }
    }
    impl Arbitrary for usize {
        fn arbitrary(rng: &mut TestRng) -> usize {
            rng.next_u64() as usize
        }
    }
    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-domain strategy for `T`.
    #[must_use]
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// An admissible length range for [`vec()`].
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        min: usize,
        /// Inclusive.
        max: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u64 + 1;
            let len = self.size.min + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.gen_value(rng)).collect()
        }
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length lies in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod bool {
    //! Boolean strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// The strategy type of [`ANY`].
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Any;

    impl Strategy for Any {
        type Value = ::core::primitive::bool;
        fn gen_value(&self, rng: &mut TestRng) -> ::core::primitive::bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Generates `true` or `false` with equal probability.
    pub const ANY: Any = Any;
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*;`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `body` for each of `cases` generated
/// inputs. The body may use the `prop_assert*` macros and
/// `return Ok(())` / `?` with [`TestCaseError`].
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            for case in 0..config.cases {
                let mut rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $pat = $crate::strategy::Strategy::gen_value(&($strat), &mut rng);)+
                let result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                })();
                if let Err(e) = result {
                    panic!(
                        "proptest {} failed at case {}/{}: {}",
                        stringify!($name),
                        case,
                        config.cases,
                        e
                    );
                }
            }
        }
    )*};
}

/// Asserts a condition inside a [`proptest!`] body, failing the case
/// (not panicking directly) so the runner can report the case number.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {}\n  left: {:?}\n right: {:?}",
            format!($($fmt)*),
            l,
            r
        );
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} != {} (both {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} (both {:?})",
            format!($($fmt)*),
            l
        );
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 3u64..10, y in -5i64..=5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-5..=5).contains(&y));
        }

        #[test]
        fn vecs_respect_size(v in crate::collection::vec(0u8..4, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&b| b < 4));
        }

        #[test]
        fn oneof_and_map(v in prop_oneof![
            (0u32..5).prop_map(|n| n as u64),
            Just(99u64),
        ]) {
            prop_assert!(v < 5 || v == 99, "unexpected {v}");
        }

        #[test]
        fn tuples_and_any(pair in (any::<u32>(), crate::bool::ANY)) {
            let (_n, b) = pair;
            prop_assert!(usize::from(b) <= 1);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let gen_seq = || {
            let mut rng = crate::test_runner::TestRng::for_case("seq", 7);
            (0..8)
                .map(|_| (0u64..1000).gen_value(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(gen_seq(), gen_seq());
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_report_case_number() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[allow(dead_code)]
            fn always_fails(x in 0u8..4) {
                prop_assert!(x > 200, "x is {x}");
            }
        }
        always_fails();
    }
}
