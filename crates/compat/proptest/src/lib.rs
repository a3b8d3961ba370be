//! Offline stand-in for the crates.io
//! [`proptest`](https://crates.io/crates/proptest) crate, providing the API
//! subset this workspace's property tests use: range/tuple/`any`/`vec`
//! strategies, `prop_map`, the `proptest!` macro (with optional
//! `#![proptest_config]`), and the `prop_assert!`/`prop_assert_eq!` macros.
//! The container this repository builds in has no registry access; swap this
//! path dependency for the real crate when online.
//!
//! Unlike real proptest there is no shrinking and no failure persistence:
//! inputs are sampled from a generator seeded deterministically per test
//! name, so failures reproduce run-to-run. Each reported failure prints the
//! case number; re-running the test replays the identical sequence.

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A generator of test values (sampling subset of `proptest::Strategy`).
    pub trait Strategy {
        /// The type of values this strategy generates.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    // Sampling itself lives in the sibling `rand` stub (real proptest also
    // builds on rand); these impls only adapt ranges to the Strategy trait.
    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rand::Rng::random_range(rng, self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rand::Rng::random_range(rng, self.clone())
                }
            }
        )*};
    }

    impl_int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Strategy for Range<f64> {
        type Value = f64;

        fn sample(&self, rng: &mut TestRng) -> f64 {
            rand::Rng::random_range(rng, self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }

    /// Types with a canonical "whole domain" strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value of `Self`.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(std::marker::PhantomData<fn() -> T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for the whole domain of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Length bounds for [`vec()`] (subset of `proptest::collection::SizeRange`).
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Generates `Vec`s of `element` values with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod test_runner {
    /// Per-test configuration (subset of `proptest::test_runner::Config`).
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of cases to run per property.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 96 }
        }
    }

    /// Deterministic generator (the `rand` stub's [`rand::StdRng`]), seeded
    /// from the test name so every run of a given test replays the same
    /// input sequence.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        inner: rand::StdRng,
    }

    impl rand::Rng for TestRng {
        fn next_u64(&mut self) -> u64 {
            rand::Rng::next_u64(&mut self.inner)
        }
    }

    impl TestRng {
        /// Seeds the generator from a test name (FNV-1a hash).
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng {
                inner: rand::SeedableRng::seed_from_u64(h),
            }
        }

        /// Returns the next 64 uniformly distributed bits.
        pub fn next_u64(&mut self) -> u64 {
            rand::Rng::next_u64(&mut self.inner)
        }

        /// Uniform value in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            rand::Rng::random_range(self, 0..bound)
        }
    }
}

/// Commonly used items, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{any, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Asserts a property holds for the current case (panics on failure, unlike
/// real proptest's error return — adequate without shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts two expressions are equal for the current case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `body` over sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($config); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::test_runner::Config::default()); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr); $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $config;
                let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
                for case in 0..config.cases {
                    let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                        $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                        $body
                    }));
                    if let Err(panic) = result {
                        eprintln!(
                            "proptest: property {} failed at case {}/{}",
                            stringify!($name), case + 1, config.cases,
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = TestRng::from_name("ranges_sample_in_bounds");
        for _ in 0..500 {
            assert!((2..9usize).contains(&(2usize..9).sample(&mut rng)));
            assert!((1..=64u8).contains(&(1u8..=64).sample(&mut rng)));
            let f = (0.25f64..0.5).sample(&mut rng);
            assert!((0.25..0.5).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_respects_size_and_map() {
        let mut rng = TestRng::from_name("vec_strategy_respects_size_and_map");
        let strat = prop::collection::vec(0i64..10, 2..5).prop_map(|v| v.len());
        for _ in 0..200 {
            let n = strat.sample(&mut rng);
            assert!((2..5).contains(&n));
        }
    }

    #[test]
    fn sampling_is_deterministic_per_name() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The macro itself works end to end, including doc attributes,
        /// multiple arguments and trailing commas.
        #[test]
        fn macro_end_to_end(x in -10i64..10, flag in any::<bool>(),) {
            prop_assert!((-10..10).contains(&x));
            prop_assert_eq!(flag as u8 <= 1, true);
        }
    }
}
