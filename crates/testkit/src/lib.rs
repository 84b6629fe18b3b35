//! **dbgw-testkit** — self-contained correctness tooling for the workspace.
//!
//! The workspace has a hard zero-external-dependency policy (the build must
//! succeed with no network and no crates-io registry; see CONTRIBUTING.md).
//! This crate supplies, from the standard library alone, what the test and
//! bench suites previously pulled from proptest / criterion / rand:
//!
//! * [`rng`] — a seeded, deterministic PRNG (splitmix64 → xoshiro256**),
//! * [`gen`] + [`runner`] — property-based testing: composable generators,
//!   a seeded case runner, and greedy iterative shrinking on failure,
//! * [`mod@bench`] — a micro-bench timer (warmup, auto-calibrated batching,
//!   median-of-N, optional JSON-lines output),
//! * [`stress`] — a seeded multi-thread stress harness (barrier start,
//!   per-thread deterministic workloads, deadlock watchdog, failures
//!   replayable by seed) and the [`stress!`] macro,
//! * [`crash`] — a named crash-point registry for deterministic power-cut
//!   injection (durability/recovery tests arm a point; the subsystem under
//!   test consults it at its would-be-fatal moments),
//! * the [`props!`] macro and the `prop_assert!` family, which keep property
//!   tests as declarative as the proptest originals.
//!
//! # Writing a property
//!
//! ```
//! use dbgw_testkit::gen::*;
//!
//! dbgw_testkit::props! {
//!     config(cases = 64);
//!
//!     /// Reversal is an involution.
//!     fn reverse_twice_is_identity(v in vec_of(ints(-100..100), 0..=20)) {
//!         let twice: Vec<i64> = v.iter().rev().rev().cloned().collect();
//!         dbgw_testkit::prop_assert_eq!(twice, v);
//!     }
//! }
//! # fn main() {}
//! ```
//!
//! Failures report the property name, the seed to replay the run
//! (`TESTKIT_SEED=<seed> cargo test <name>`), and a shrunk counterexample.
//! `TESTKIT_CASES` sets every property's case count, outranking a block's
//! `config(cases = …)`.

#![warn(missing_docs)]

pub mod bench;
pub mod crash;
pub mod gen;
pub mod rng;
pub mod runner;
pub mod stress;

pub use gen::Gen;
pub use rng::Rng;
pub use runner::{check, Config};
pub use stress::StressConfig;

/// Define property tests: each `fn name(arg in GEN, ...) { body }` becomes a
/// `#[test]` that checks the body against generated arguments, shrinking on
/// failure. An optional leading `config(field = value, ...);` applies to every
/// property in the block (fields of [`Config`], e.g. `cases`).
#[macro_export]
macro_rules! props {
    (config($($cfg_field:ident = $cfg_value:expr),* $(,)?); $($rest:tt)*) => {
        $crate::__props_impl!([$($cfg_field = $cfg_value),*] $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__props_impl!([] $($rest)*);
    };
}

/// Implementation detail of [`props!`]: peels one property per recursion so
/// the shared config tokens can be re-expanded inside each test fn.
#[doc(hidden)]
#[macro_export]
macro_rules! __props_impl {
    ([$($cfg:tt)*]) => {};
    ([$($cfg:tt)*]
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $generator:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            #[allow(unused_mut)]
            let mut config = $crate::Config::named(stringify!($name));
            $crate::__props_cfg!(config; $($cfg)*);
            config.cases = $crate::runner::env_cases().unwrap_or(config.cases);
            let generator = ($($generator,)+);
            $crate::check(&config, &generator, |value| {
                let ($($arg,)+) = ::std::clone::Clone::clone(value);
                $body
                #[allow(unreachable_code)]
                Ok(())
            });
        }
        $crate::__props_impl!([$($cfg)*] $($rest)*);
    };
}

/// Implementation detail of [`props!`]: applies `field = value` pairs.
#[doc(hidden)]
#[macro_export]
macro_rules! __props_cfg {
    ($config:ident;) => {};
    ($config:ident; $field:ident = $value:expr $(, $($rest:tt)*)?) => {
        $config.$field = $value;
        $crate::__props_cfg!($config; $($($rest)*)?);
    };
}

/// Fail the enclosing property with a message unless the condition holds.
/// Unlike `assert!`, the failure feeds the shrinker without unwinding noise.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Property-test counterpart of `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                left,
                right,
                file!(),
                line!()
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err(format!($($fmt)+));
        }
    }};
}

/// Property-test counterpart of `assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return Err(format!(
                "assertion failed: {} != {}\n  both: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                left,
                file!(),
                line!()
            ));
        }
    }};
}
