//! Minimal property-based testing harness with a proptest-compatible
//! surface.
//!
//! The workspace must build offline, so it cannot depend on the `proptest`
//! crate. This crate implements the subset the test suite uses — the
//! [`proptest!`] macro with `arg in strategy` bindings, range / tuple /
//! `any::<T>()` / `prop::collection::vec` strategies, `prop_assert!` /
//! `prop_assert_eq!`, and `ProptestConfig::with_cases` — over the
//! workspace's own deterministic RNG. Test files keep their
//! `use ...prelude::*` + `proptest! { ... }` shape unchanged.
//!
//! Differences from real proptest, deliberate and documented:
//! - no shrinking: a failing case reports its generated inputs and case
//!   number instead (rerun with the printed inputs to debug);
//! - cases default to 64 per property (override with
//!   `#![proptest_config(ProptestConfig::with_cases(n))]`);
//! - generation is seeded from the property's full module path, so runs
//!   are reproducible and properties are independent of each other.

use std::ops::Range;

pub use atmem_rng::SmallRng;

/// Everything a property-test file needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_cases, proptest, ProptestConfig, Strategy,
    };
}

/// Cases per property: `ATMEM_PROP_CASES` when it is set to a number, else
/// `default`. One variable narrows or widens every sweep in the workspace.
pub fn prop_cases(default: u32) -> u32 {
    std::env::var("ATMEM_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Run configuration for one `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// Deterministic per-property seed (FNV-1a over the property's name).
    pub fn seed_for(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

/// A value generator. Strategies compose structurally (tuples, vectors)
/// exactly like proptest's, minus shrinking.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draws one value.
    fn generate(&self, rng: &mut SmallRng) -> Self::Value;
}

macro_rules! range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategies!(u32, u64, usize, f32, f64);

macro_rules! tuple_strategies {
    ($(($($s:ident / $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A / 0, B / 1)
    (A / 0, B / 1, C / 2)
    (A / 0, B / 1, C / 2, D / 3)
}

/// Types with a whole-domain strategy (proptest's `Arbitrary` subset).
pub trait Arbitrary: Sized {
    /// Draws one value from the full domain.
    fn arbitrary(rng: &mut SmallRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut SmallRng) -> Self {
        rng.gen()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut SmallRng) -> Self {
        rng.gen()
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut SmallRng) -> Self {
        rng.gen()
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut SmallRng) -> Self {
        rng.gen()
    }
}

/// Strategy over a type's full domain; created by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        T::arbitrary(rng)
    }
}

/// The whole-domain strategy for `T` (`any::<u64>()`, `any::<bool>()`, …).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{SmallRng, Strategy};
    use std::ops::Range;

    /// Strategy for vectors of strategy-generated elements; created by
    /// [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut SmallRng) -> Self::Value {
            let len = rng.gen_range(self.size.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector strategy with element strategy `element` and a length drawn
    /// from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

/// Namespace re-export so `prop::collection::vec(...)` works after a glob
/// import of the prelude, as with real proptest.
pub mod prop {
    pub use crate::collection;
}

/// Asserts a condition inside a property (alias of `assert!`; without
/// shrinking there is no separate rejection path to feed).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property (alias of `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { ... }`
/// becomes a `#[test]` that generates `cases` inputs and runs the body on
/// each; a panic reports the case number and generated inputs, then
/// propagates.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($config:expr)] $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($config:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $config;
                let __seed = $crate::ProptestConfig::seed_for(concat!(
                    module_path!(),
                    "::",
                    stringify!($name)
                ));
                let mut __rng = $crate::SmallRng::seed_from_u64(__seed);
                for __case in 0..__config.cases {
                    $(
                        let $arg = $crate::Strategy::generate(&($strat), &mut __rng);
                    )*
                    let __inputs = [
                        $(format!("{} = {:?}", stringify!($arg), &$arg)),*
                    ]
                    .join(", ");
                    let __outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(|| $body),
                    );
                    if let Err(panic) = __outcome {
                        eprintln!(
                            "property {} failed at case {}/{} with inputs: {}",
                            stringify!($name),
                            __case + 1,
                            __config.cases,
                            __inputs
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

    proptest! {
        /// The harness binds multiple strategies and respects their bounds.
        #[test]
        fn bounds_hold(
            small in 1usize..8,
            flag in any::<bool>(),
            items in prop::collection::vec((0u32..10, any::<u64>()), 0..16),
        ) {
            prop_assert!((1..8).contains(&small));
            prop_assert!(items.len() < 16);
            for (x, _) in &items {
                prop_assert!(*x < 10);
            }
            let _ = flag;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// Config header caps the case count (observable via a counter).
        #[test]
        fn config_is_respected(x in 0u64..1000) {
            use std::sync::atomic::{AtomicU32, Ordering};
            static RUNS: AtomicU32 = AtomicU32::new(0);
            let runs = RUNS.fetch_add(1, Ordering::SeqCst) + 1;
            prop_assert!(runs <= 5);
            prop_assert!(x < 1000);
        }
    }

    #[test]
    fn seeds_differ_by_name() {
        assert_ne!(
            ProptestConfig::seed_for("a::b"),
            ProptestConfig::seed_for("a::c")
        );
    }
}
