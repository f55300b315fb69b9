//! Offline stand-in for the subset of the [proptest] API the blazr
//! workspace uses.
//!
//! The build environment has no crates.io access, so this shim provides a
//! deterministic property-testing harness behind proptest's names: the
//! `proptest!` macro (with `#![proptest_config(..)]`), range/tuple/`Just`
//! strategies, `prop_map`/`prop_flat_map`, `prop_oneof!`,
//! `proptest::collection::vec`, `any::<T>()`, and the
//! `prop_assert*`/`prop_assume!` macros.
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case panics with the generated inputs in
//!   the assertion message instead of a minimized counterexample.
//! * **Deterministic seeding.** Each test's RNG is seeded from the test's
//!   name, so failures reproduce exactly across runs and machines.
//!
//! Swapping in the real crate is a one-line workspace-manifest change;
//! every call site compiles against this exact surface.
//!
//! [proptest]: https://docs.rs/proptest
#![forbid(unsafe_code)]

pub mod test_runner {
    //! Configuration, RNG, and the rejection error type.

    /// Mirrors `proptest::test_runner::Config` for the fields we use.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
        /// Maximum rejected (`prop_assume!`-failed) cases before giving up.
        pub max_global_rejects: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self {
                cases: 256,
                max_global_rejects: 65_536,
            }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` successful cases.
        pub fn with_cases(cases: u32) -> Self {
            Self {
                cases,
                ..Self::default()
            }
        }
    }

    /// Why a generated case did not complete.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The case was rejected by `prop_assume!` and should be retried.
        Reject(&'static str),
    }

    /// Deterministic xorshift-family RNG (splitmix64 core) for generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds deterministically from a test's name.
        pub fn deterministic(name: &str) -> Self {
            // FNV-1a over the name, then one splitmix64 scramble.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            let mut rng = Self { state: h };
            rng.next_u64();
            rng
        }

        /// Next raw 64 random bits (splitmix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform `u64` in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            // Modulo is biased by at most 2^-32 for our small test bounds.
            self.next_u64() % bound
        }

        /// Uniform `f64` in `[0, 1)` with 53 random bits.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and the combinators the workspace uses.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike real proptest there is no value tree / shrinking; `generate`
    /// produces the final value directly.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` returns.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            self.as_ref().generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
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
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Uniform choice among type-erased alternatives (`prop_oneof!`).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// A union of the given alternatives; must be non-empty.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Self { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    /// Helper used by `prop_oneof!` to erase each arm's concrete type.
    pub fn erase<S>(s: S) -> BoxedStrategy<S::Value>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    // Spans here always fit in u64 (test ranges are small).
                    let off = rng.below(span as u64) as i128;
                    (self.start as i128 + off) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u128;
                    let off = rng.below(span as u64) as i128;
                    (lo as i128 + off) as $t
                }
            }
        )*};
    }
    int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            let v = self.start + (self.end - self.start) * rng.unit_f64();
            // `(end - start) * u` can round up to exactly `end - start`
            // even for u < 1; keep the exclusive-bound contract.
            if v < self.end {
                v
            } else {
                self.start
            }
        }
    }

    impl Strategy for std::ops::Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty range strategy");
            // 24 random bits so the unit value is exactly representable
            // (casting a 53-bit f64 fraction can round up to 1.0).
            let u = (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32);
            let v = self.start + (self.end - self.start) * u;
            if v < self.end {
                v
            } else {
                self.start
            }
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn ranges_stay_in_bounds() {
            let mut rng = TestRng::deterministic("ranges_stay_in_bounds");
            for _ in 0..1000 {
                let v = (-300i32..300).generate(&mut rng);
                assert!((-300..300).contains(&v));
                let f = (0.1f64..100.0).generate(&mut rng);
                assert!((0.1..100.0).contains(&f));
                let u = (2usize..24).generate(&mut rng);
                assert!((2..24).contains(&u));
            }
        }

        #[test]
        fn flat_map_composes() {
            let s = (1usize..4)
                .prop_flat_map(|n| crate::collection::vec(0u8..10, n).prop_map(move |v| (n, v)));
            let mut rng = TestRng::deterministic("flat_map_composes");
            for _ in 0..100 {
                let (n, v) = s.generate(&mut rng);
                assert_eq!(v.len(), n);
            }
        }

        #[test]
        fn union_hits_every_arm() {
            let s = Union::new(vec![erase(Just(1u8)), erase(Just(2u8)), erase(Just(3u8))]);
            let mut rng = TestRng::deterministic("union_hits_every_arm");
            let mut seen = [false; 4];
            for _ in 0..200 {
                seen[s.generate(&mut rng) as usize] = true;
            }
            assert_eq!(&seen[1..], &[true, true, true]);
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` for the primitive types the workspace generates.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Generates an arbitrary value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary_value(rng: &mut TestRng) -> f64 {
            // Finite, sign-symmetric, spanning many magnitudes.
            let mag = 10f64.powi((rng.below(61) as i32) - 30);
            (rng.unit_f64() * 2.0 - 1.0) * mag
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary_value(rng: &mut TestRng) -> f32 {
            f64::arbitrary_value(rng) as f32
        }
    }

    /// Strategy produced by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// `any::<T>()` — an arbitrary value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! `proptest::collection::vec`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Inclusive-lower, exclusive-upper length range for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec length range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy for vectors whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo
                + if span > 0 {
                    rng.below(span) as usize
                } else {
                    0
                };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector of `size.into()` elements generated by `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    //! Everything call sites import with `use proptest::prelude::*`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Declares property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            #[allow(clippy::redundant_closure_call)]
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                let mut passed: u32 = 0;
                let mut rejected: u32 = 0;
                while passed < config.cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strategy), &mut rng);)+
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (move || { $body ::std::result::Result::Ok(()) })();
                    match outcome {
                        ::std::result::Result::Ok(()) => passed += 1,
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {
                            rejected += 1;
                            assert!(
                                rejected < config.max_global_rejects,
                                "too many prop_assume! rejections ({rejected}) in {}",
                                stringify!($name),
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::erase($strategy)),+])
    };
}

/// Asserts within a property; panics with the formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Equality assertion within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_eq!($left, $right, $($fmt)+) };
}

/// Inequality assertion within a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => { assert_ne!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_ne!($left, $right, $($fmt)+) };
}

/// Skips the current case (retried, not counted) when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond),
            ));
        }
    };
}

#[cfg(test)]
mod self_tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn generated_values_respect_strategies(
            x in 1u8..10,
            v in crate::collection::vec(any::<u8>(), 0..16),
            f in -1.0f64..1.0,
        ) {
            prop_assert!((1..10).contains(&x));
            prop_assert!(v.len() < 16);
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn deterministic_rng_is_stable() {
        let mut a = TestRng::deterministic("stable");
        let mut b = TestRng::deterministic("stable");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
