//! The property runner: generate, check, shrink, report.

use crate::gen::Gen;
use crate::rng::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Knobs for one property check.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to run (`TESTKIT_CASES` overrides).
    pub cases: u32,
    /// Seed for the case stream (`TESTKIT_SEED` overrides; printed on
    /// failure so a run can be replayed exactly).
    pub seed: u64,
    /// Upper bound on shrink attempts after a failure.
    pub max_shrink_steps: u32,
    /// Property name, included in failure reports.
    pub name: &'static str,
}

impl Config {
    /// The default configuration for a named property: 96 cases, seed derived
    /// from the property name (stable across runs and platforms).
    pub fn named(name: &'static str) -> Config {
        let seed = match std::env::var("TESTKIT_SEED") {
            Ok(s) => s
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("TESTKIT_SEED is not a u64: {s:?}")),
            Err(_) => fnv1a(name.as_bytes()),
        };
        Config {
            cases: env_cases().unwrap_or(96),
            seed,
            max_shrink_steps: 4096,
            name,
        }
    }
}

/// The case count `TESTKIT_CASES` asks for, if set. It outranks the count
/// a `props!` block configures, so one variable runs a whole suite deeper.
pub fn env_cases() -> Option<u32> {
    std::env::var("TESTKIT_CASES")
        .ok()
        .and_then(|s| s.trim().parse().ok())
}

/// FNV-1a, the seed-from-name hash (not security sensitive).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Run `prop` against `config.cases` generated values; on failure, shrink to
/// a locally minimal counterexample and panic with a replayable report.
///
/// A property fails by returning `Err` (what the `prop_assert!` family does)
/// or by panicking; panics are caught so shrinking can continue.
pub fn check<G: Gen>(
    config: &Config,
    generator: &G,
    prop: impl Fn(&G::Value) -> Result<(), String>,
) {
    let mut rng = Rng::new(config.seed);
    for case in 1..=config.cases {
        let value = generator.generate(&mut rng);
        if let Some(message) = failure(&prop, &value) {
            let (minimal, minimal_msg, steps) =
                shrink_to_minimal(generator, &prop, value, message, config.max_shrink_steps);
            panic!(
                "[{name}] property falsified on case {case}/{cases} (seed {seed}; \
                 rerun with TESTKIT_SEED={seed})\n  \
                 minimal counterexample ({steps} shrink steps): {minimal:?}\n  \
                 failure: {minimal_msg}",
                name = config.name,
                cases = config.cases,
                seed = config.seed,
            );
        }
    }
}

/// `Some(message)` if the property rejects `value`.
fn failure<V>(prop: &impl Fn(&V) -> Result<(), String>, value: &V) -> Option<String> {
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(Ok(())) => None,
        Ok(Err(message)) => Some(message),
        Err(payload) => Some(panic_message(payload.as_ref())),
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_owned()
    }
}

/// Greedy first-improvement descent over the generator's shrink candidates.
fn shrink_to_minimal<G: Gen>(
    generator: &G,
    prop: &impl Fn(&G::Value) -> Result<(), String>,
    mut current: G::Value,
    mut current_msg: String,
    max_steps: u32,
) -> (G::Value, String, u32) {
    let mut steps = 0u32;
    'outer: while steps < max_steps {
        for candidate in generator.shrink(&current) {
            steps += 1;
            if let Some(message) = failure(prop, &candidate) {
                current = candidate;
                current_msg = message;
                continue 'outer; // restart from the smaller failing value
            }
            if steps >= max_steps {
                break 'outer;
            }
        }
        break; // no candidate still fails: locally minimal
    }
    (current, current_msg, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{ints, vec_of};

    #[test]
    fn passing_property_passes() {
        let config = Config {
            cases: 50,
            seed: 1,
            max_shrink_steps: 100,
            name: "tautology",
        };
        check(&config, &ints(0..100), |_| Ok(()));
    }

    #[test]
    fn failing_property_panics_with_report() {
        let config = Config {
            cases: 200,
            seed: 2,
            max_shrink_steps: 1000,
            name: "falsum",
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            check(&config, &ints(0..100), |v| {
                if *v >= 50 {
                    Err(format!("{v} too big"))
                } else {
                    Ok(())
                }
            });
        }));
        let msg = panic_message(result.unwrap_err().as_ref());
        assert!(msg.contains("falsum"), "{msg}");
        assert!(msg.contains("minimal counterexample"), "{msg}");
        // Greedy shrinking from any failing value must land exactly on the
        // boundary case.
        assert!(msg.contains(": 50"), "{msg}");
    }

    #[test]
    fn panicking_property_is_caught_and_shrunk() {
        let config = Config {
            cases: 100,
            seed: 3,
            max_shrink_steps: 2000,
            name: "panics",
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            check(&config, &vec_of(ints(0..10), 0..=20), |v| {
                assert!(v.len() < 5, "vector of {} elements", v.len());
                Ok(())
            });
        }));
        let msg = panic_message(result.unwrap_err().as_ref());
        // Minimal failing vector has exactly 5 elements.
        assert!(msg.contains("5 elements"), "{msg}");
    }
}
