//! Offline stand-in for the `proptest` API surface used by this workspace.
//!
//! The build environment has no crates.io access, so this crate provides the
//! subset of proptest the TAP test suites rely on: the [`proptest!`] macro,
//! `any::<T>()`, integer-range strategies, tuple strategies, and
//! [`collection::vec`]. Each property runs a fixed number of random cases
//! from a seed derived from the test name, so failures are reproducible
//! run-to-run. There is no shrinking: a failing case prints its debug
//! representation instead.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

/// Number of random cases each property runs.
pub const CASES: u32 = 96;
/// Cap on rejected (`prop_assume!`) cases before the property gives up.
pub const MAX_REJECTS: u32 = CASES * 16;

/// Case generator handed to strategies. Wraps the workspace [`StdRng`].
pub struct Gen(StdRng);

impl Gen {
    /// Deterministic generator derived from the test's name.
    pub fn deterministic(name: &str) -> Gen {
        // FNV-1a over the name: stable across runs and platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Gen(StdRng::seed_from_u64(h))
    }

    /// The underlying generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.0
    }
}

/// Why a single case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the runner draws a fresh case.
    Reject,
    /// An assertion failed; the runner panics with this message.
    Fail(String),
}

/// A source of random values for one macro parameter.
pub trait Strategy {
    /// The value type produced.
    type Value;
    /// Draw one value.
    fn generate(&self, gen: &mut Gen) -> Self::Value;
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draw an unconstrained value.
    fn arbitrary(gen: &mut Gen) -> Self;
}

macro_rules! impl_arbitrary_std {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(gen: &mut Gen) -> Self {
                gen.rng().gen()
            }
        }
    )*};
}
impl_arbitrary_std!(u8, u32, u64, usize, bool);

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(gen: &mut Gen) -> Self {
        gen.rng().gen()
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// The canonical strategy for `T`: uniform over the whole domain.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, gen: &mut Gen) -> T {
        T::arbitrary(gen)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, gen: &mut Gen) -> $t {
                gen.rng().gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, gen: &mut Gen) -> $t {
                gen.rng().gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $i:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, gen: &mut Gen) -> Self::Value {
                ($(self.$i.generate(gen),)+)
            }
        }
    )+};
}
impl_tuple_strategy! {
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Gen, Strategy};

    /// Length specification for [`vec()`]: an exact size or a half-open range.
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s of `element` draws with a length drawn
    /// from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, gen: &mut Gen) -> Vec<S::Value> {
            use rand::Rng as _;
            let len = if self.size.lo + 1 >= self.size.hi_exclusive {
                self.size.lo
            } else {
                gen.rng().gen_range(self.size.lo..self.size.hi_exclusive)
            };
            (0..len).map(|_| self.element.generate(gen)).collect()
        }
    }
}

/// Runner configuration. Only `with_cases` is honored; the [`proptest!`]
/// macro pattern-matches the call, so this type exists for name resolution
/// in `use proptest::prelude::*` contexts.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig;

impl ProptestConfig {
    /// Run `n` cases per property.
    pub fn with_cases(n: u32) -> u32 {
        n
    }
}

/// Everything a property-test module needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Define property tests. Mirrors proptest's macro shape:
///
/// ```ignore
/// proptest! {
///     #[test]
///     fn prop_name(a in any::<u64>(), b in 0usize..10) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    // With a leading `#![proptest_config(...)]`: honor an explicit
    // `ProptestConfig::with_cases(N)` by overriding the case count.
    (#![proptest_config($crate::ProptestConfig::with_cases($cases:expr))] $($rest:tt)+) => {
        $crate::proptest!(@cases ($cases) $($rest)+);
    };
    (#![proptest_config(ProptestConfig::with_cases($cases:expr))] $($rest:tt)+) => {
        $crate::proptest!(@cases ($cases) $($rest)+);
    };
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $crate::proptest!(@cases ($crate::CASES) $($(#[$meta])* fn $name($($arg in $strat),+) $body)+);
    };
    (@cases ($cases:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut gen = $crate::Gen::deterministic(concat!(module_path!(), "::", stringify!($name)));
                let cases: u32 = $cases;
                let mut accepted = 0u32;
                let mut attempts = 0u32;
                while accepted < cases {
                    attempts += 1;
                    assert!(
                        attempts <= cases.saturating_mul(16),
                        "prop_assume! rejected too many cases in {}",
                        stringify!($name)
                    );
                    $(let $arg = $crate::Strategy::generate(&$strat, &mut gen);)+
                    // Snapshot inputs before the body runs: the closure may
                    // consume them by move.
                    let inputs = format!("{:?}", ($(&$arg,)+));
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    match outcome {
                        Ok(()) => accepted += 1,
                        Err($crate::TestCaseError::Reject) => continue,
                        Err($crate::TestCaseError::Fail(msg)) => {
                            panic!(
                                "property {} failed: {}\ninputs: {}",
                                stringify!($name),
                                msg,
                                inputs
                            );
                        }
                    }
                }
            }
        )+
    };
}

/// Assert inside a property body; failure aborts the case with a message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(lhs == rhs) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "{} == {} failed: {:?} vs {:?}",
                stringify!($a),
                stringify!($b),
                lhs,
                rhs
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(lhs == rhs) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "{} ({:?} vs {:?})",
                format!($($fmt)+),
                lhs,
                rhs
            )));
        }
    }};
}

/// `assert_ne!` inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(lhs != rhs) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "{} != {} failed: both {:?}",
                stringify!($a),
                stringify!($b),
                lhs
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(lhs != rhs) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "{} (both {:?})",
                format!($($fmt)+),
                lhs
            )));
        }
    }};
}

/// Reject the current case's inputs; the runner draws fresh ones.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(a in 0usize..10, b in 1u32..=8) {
            prop_assert!(a < 10);
            prop_assert!((1..=8).contains(&b));
        }

        #[test]
        fn vec_strategy_sizes(v in crate::collection::vec(any::<u8>(), 3..7)) {
            prop_assert!((3..7).contains(&v.len()));
        }

        #[test]
        fn exact_vec_size(v in crate::collection::vec(any::<u8>(), 6usize)) {
            prop_assert_eq!(v.len(), 6);
        }

        #[test]
        fn tuples_and_assume(pair in (0u64..100, 0u64..100)) {
            prop_assume!(pair.0 != pair.1);
            prop_assert_ne!(pair.0, pair.1);
        }
    }

    #[test]
    #[should_panic(expected = "property")]
    fn failing_property_panics_with_inputs() {
        proptest! {
            fn always_fails(a in 0usize..4) {
                prop_assert!(a > 100, "a was {}", a);
            }
        }
        always_fails();
    }
}
