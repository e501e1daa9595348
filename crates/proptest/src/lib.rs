//! Offline stand-in for the [`proptest`](https://docs.rs/proptest/1)
//! crate.
//!
//! The build environment has no crates.io access, so the external
//! `proptest` dev-dependency is replaced (via a Cargo dependency
//! rename) by this crate. It implements the subset of the proptest API
//! the workspace's tests use:
//!
//! * the [`proptest!`] macro (with `#![proptest_config(...)]` support)
//!   over `name in strategy` bindings;
//! * [`prop_assert!`] / [`prop_assert_eq!`];
//! * strategies: integer ranges (`0u64..100`, `1i64..=5`), tuples,
//!   [`collection::vec`], [`collection::btree_map`],
//!   `num::<int>::ANY` and [`bool::ANY`](crate::bool::ANY);
//! * [`prelude::ProptestConfig`] with
//!   [`with_cases`](prelude::ProptestConfig::with_cases).
//!
//! Differences from the real crate, by design:
//!
//! * cases are generated from a deterministic per-test seed (an FNV
//!   hash of the test name), so runs are exactly reproducible — there
//!   is no `PROPTEST_` environment handling and no persistence of
//!   regressions;
//! * no shrinking: a failing case reports the sampled inputs verbatim
//!   and re-raises the panic.

#![deny(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// A source of random test inputs. Implemented by ranges, tuples, and
/// the combinators in [`collection`], [`num`] and
/// [`bool`](crate::bool).
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut StdRng) -> Self::Value {
        (**self).sample(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for ::std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for ::std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($n:ident . $i:tt),+)),* $(,)?) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$i.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy!(
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
);

/// Full-domain strategy for a primitive type (the `ANY` constants).
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(::std::marker::PhantomData<T>);

impl<T> Any<T> {
    /// The (stateless) full-domain strategy.
    #[must_use]
    pub const fn new() -> Self {
        Self(::std::marker::PhantomData)
    }
}

impl<T> Default for Any<T> {
    fn default() -> Self {
        Self::new()
    }
}

macro_rules! impl_any_int {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<u128> {
    type Value = u128;
    fn sample(&self, rng: &mut StdRng) -> u128 {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Strategy for Any<i128> {
    type Value = i128;
    fn sample(&self, rng: &mut StdRng) -> i128 {
        Any::<u128>::new().sample(rng) as i128
    }
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn sample(&self, rng: &mut StdRng) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// Full-domain strategies per numeric type, mirroring `proptest::num`.
pub mod num {
    macro_rules! any_module {
        ($($m:ident : $t:ty),* $(,)?) => {$(
            /// Strategies for this primitive type.
            pub mod $m {
                /// Uniform over the whole domain.
                pub const ANY: crate::Any<$t> = crate::Any::new();
            }
        )*};
    }
    any_module!(
        u8: u8, u16: u16, u32: u32, u64: u64, u128: u128, usize: usize,
        i8: i8, i16: i16, i32: i32, i64: i64, i128: i128, isize: isize,
    );
}

/// Boolean strategies, mirroring `proptest::bool`.
pub mod bool {
    /// Fair coin.
    pub const ANY: crate::Any<bool> = crate::Any::new();
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: ::std::ops::Range<usize>,
    }

    /// A vector of values from `element`, with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: ::std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let n = rng.random_range(self.size.clone());
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Strategy for `BTreeMap<K::Value, V::Value>`.
    #[derive(Debug, Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: ::std::ops::Range<usize>,
    }

    /// A map with up to `size.end - 1` entries (duplicate sampled keys
    /// collapse, exactly as in the real crate).
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: ::std::ops::Range<usize>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy { key, value, size }
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = ::std::collections::BTreeMap<K::Value, V::Value>;
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let n = rng.random_range(self.size.clone());
            (0..n)
                .map(|_| (self.key.sample(rng), self.value.sample(rng)))
                .collect()
        }
    }

    /// Strategy for `HashSet<S::Value>`.
    #[derive(Debug, Clone)]
    pub struct HashSetStrategy<S> {
        element: S,
        size: ::std::ops::Range<usize>,
    }

    /// A set with up to `size.end - 1` entries (duplicate sampled
    /// elements collapse, exactly as in the real crate).
    pub fn hash_set<S: Strategy>(element: S, size: ::std::ops::Range<usize>) -> HashSetStrategy<S>
    where
        S::Value: ::std::hash::Hash + Eq,
    {
        HashSetStrategy { element, size }
    }

    impl<S: Strategy> Strategy for HashSetStrategy<S>
    where
        S::Value: ::std::hash::Hash + Eq,
    {
        type Value = ::std::collections::HashSet<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let n = rng.random_range(self.size.clone());
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Runner configuration, mirroring `proptest::prelude`.
pub mod prelude {
    /// How many cases [`crate::proptest!`] runs per test.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of generated cases.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases per test.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    pub use crate::Strategy;
}

/// Internal runtime for the [`proptest!`] expansion. Not a public API.
#[doc(hidden)]
pub mod __rt {
    pub use rand::rngs::StdRng;
    pub use rand::SeedableRng;

    /// FNV-1a over the test name: a stable per-test seed.
    #[must_use]
    pub fn test_seed(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

/// Defines deterministic property tests.
///
/// ```no_run
/// use hindex_proptest as proptest;
/// proptest::proptest! {
///     #[test]
///     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
///         proptest::prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[allow(clippy::test_attr_in_doctest)] // the macro's whole point is to emit #[test] fns
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    (@cfg ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $p:pat in $strat:expr ),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::prelude::ProptestConfig = $cfg;
            let mut rng: $crate::__rt::StdRng =
                $crate::__rt::SeedableRng::seed_from_u64(
                    $crate::__rt::test_seed(concat!(module_path!(), "::", stringify!($name))),
                );
            for case in 0..config.cases {
                let inputs = ( $( $crate::Strategy::sample(&($strat), &mut rng), )+ );
                let shown = format!("{inputs:?}");
                let outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(move || {
                        let ( $($p,)+ ) = inputs;
                        $body
                    }),
                );
                if let Err(panic) = outcome {
                    eprintln!(
                        "proptest case {case}/{} of `{}` failed with inputs {shown}",
                        config.cases,
                        stringify!($name),
                    );
                    ::std::panic::resume_unwind(panic);
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::prelude::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*);
    };
}

/// Skips the current case when `cond` is false. Unlike the real crate
/// this does not resample a replacement case; the case simply counts
/// as passed.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    crate::proptest! {
        #[test]
        fn ranges_respected(a in 5u64..10, b in -3i64..=3) {
            crate::prop_assert!((5..10).contains(&a));
            crate::prop_assert!((-3..=3).contains(&b));
        }

        #[test]
        fn collections_respect_sizes(
            v in crate::collection::vec(0u32..100, 2..8),
            m in crate::collection::btree_map(0u64..50, 0u8..5, 0..10),
        ) {
            crate::prop_assert!((2..8).contains(&v.len()));
            crate::prop_assert!(m.len() < 10);
            crate::prop_assert!(v.iter().all(|&x| x < 100));
        }
    }

    crate::proptest! {
        #![proptest_config(crate::prelude::ProptestConfig::with_cases(7))]

        #[test]
        fn config_is_applied(seed in crate::num::u64::ANY) {
            // Seven cases, each with a full-domain u64.
            let _ = seed;
        }
    }

    #[test]
    fn seeds_differ_per_name() {
        assert_ne!(crate::__rt::test_seed("a"), crate::__rt::test_seed("b"));
    }
}
