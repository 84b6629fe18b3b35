//! [`LatchTable`] — named exclusive latches with a deadlock-free protocol.
//!
//! A latch table hands out short-lived exclusive latches keyed by name (the
//! database uses lowercased table names, plus the reserved catalog name
//! [`CATALOG_LATCH`]). Deadlock freedom is by *total acquisition order*:
//! [`LatchTable::acquire`] sorts and dedupes the requested names and locks
//! them in that order, so two writers can never hold latches in conflicting
//! orders. The catalog name is the empty string, which sorts before every
//! legal table name — a DDL statement that takes the catalog latch first and
//! a table latch second therefore still respects the global order.
//!
//! Latches are *not* std mutexes handed to the caller: a [`LatchSet`] guard
//! releases on drop, including a drop that happens during a panic unwind, so
//! a writer that dies mid-statement cannot strand the table. The waiting
//! primitive underneath is a [`Mutex`]`<bool>` + `Condvar` pair, and the
//! poison-recovering [`Mutex`] wrapper means a panic inside the (tiny)
//! critical sections cannot cascade either.

use crate::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

/// The reserved latch name that serializes DDL (catalog-shape changes).
/// Empty, so it sorts before every real table name in the total order.
pub const CATALOG_LATCH: &str = "";

/// One named exclusive latch: a held flag and the queue waiting on it.
#[derive(Debug, Default)]
struct Latch {
    state: Mutex<bool>,
    unlocked: Condvar,
}

impl Latch {
    /// Block until the latch is free, then take it. Returns the time spent
    /// waiting (zero when the latch was free).
    fn lock(&self) -> Duration {
        let mut held = self.state.lock();
        if !*held {
            *held = true;
            return Duration::ZERO;
        }
        let start = Instant::now();
        while *held {
            held = self
                .unlocked
                .wait(held)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        *held = true;
        start.elapsed()
    }

    fn unlock(&self) {
        *self.state.lock() = false;
        self.unlocked.notify_one();
    }
}

/// A registry of named exclusive latches.
///
/// Latch objects are created on first use and live for the table's lifetime;
/// the registry itself is only locked long enough to look names up, never
/// while waiting for a latch.
#[derive(Debug, Default)]
pub struct LatchTable {
    latches: Mutex<HashMap<String, Arc<Latch>>>,
}

impl LatchTable {
    /// An empty table.
    pub fn new() -> LatchTable {
        LatchTable::default()
    }

    /// Acquire exclusive latches on every name in `names` (any order, dups
    /// fine), blocking until all are held. Acquisition happens in sorted
    /// order — the total order that makes deadlock impossible as long as
    /// every multi-latch acquisition goes through this method.
    ///
    /// The returned guard releases every latch on drop (panic-safe) and
    /// reports the total time spent waiting, for lock-contention metrics.
    pub fn acquire<S: AsRef<str>>(&self, names: &[S]) -> LatchSet {
        let mut sorted: Vec<&str> = names.iter().map(|s| s.as_ref()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let handles: Vec<Arc<Latch>> = {
            let mut registry = self.latches.lock();
            sorted
                .iter()
                .map(|name| {
                    Arc::clone(
                        registry
                            .entry((*name).to_owned())
                            .or_insert_with(|| Arc::new(Latch::default())),
                    )
                })
                .collect()
        };
        let mut set = LatchSet {
            held: Vec::with_capacity(handles.len()),
            waited: Duration::ZERO,
        };
        for latch in handles {
            // If a later lock() somehow unwound, `set` would drop and release
            // the prefix already held — no latch can leak.
            set.waited += latch.lock();
            set.held.push(latch);
        }
        set
    }

    /// Number of distinct latch names ever seen (registry size; tests).
    pub fn len(&self) -> usize {
        self.latches.lock().len()
    }

    /// Whether no latch has ever been requested.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// RAII guard over one sorted-order acquisition; releases all latches on
/// drop, in reverse acquisition order.
#[derive(Debug)]
pub struct LatchSet {
    held: Vec<Arc<Latch>>,
    waited: Duration,
}

impl LatchSet {
    /// Total time this acquisition spent blocked on other holders.
    pub fn waited(&self) -> Duration {
        self.waited
    }

    /// How many distinct latches the set holds.
    pub fn len(&self) -> usize {
        self.held.len()
    }

    /// Whether the set holds no latches (an empty write set).
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }
}

impl Drop for LatchSet {
    fn drop(&mut self) {
        for latch in self.held.drain(..).rev() {
            latch.unlock();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn exclusive_within_one_name() {
        let table = Arc::new(LatchTable::new());
        let in_section = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let table = Arc::clone(&table);
                let in_section = Arc::clone(&in_section);
                s.spawn(move || {
                    for _ in 0..200 {
                        let _guard = table.acquire(&["t"]);
                        assert_eq!(in_section.fetch_add(1, Ordering::SeqCst), 0);
                        in_section.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
    }

    #[test]
    fn sorted_multi_latch_never_deadlocks() {
        // Every thread asks for a random-order subset; sorted acquisition
        // must let all of them finish.
        let table = Arc::new(LatchTable::new());
        std::thread::scope(|s| {
            for t in 0..8usize {
                let table = Arc::clone(&table);
                s.spawn(move || {
                    let names = ["a", "b", "c", "d"];
                    for i in 0..300usize {
                        let first = (t + i) % names.len();
                        let second = (t + 3 * i + 1) % names.len();
                        let _guard = table.acquire(&[names[first], names[second]]);
                    }
                });
            }
        });
        assert_eq!(table.len(), 4);
    }

    #[test]
    fn duplicate_names_collapse() {
        let table = LatchTable::new();
        let guard = table.acquire(&["t", "t", "t"]);
        assert_eq!(guard.len(), 1);
    }

    #[test]
    fn catalog_latch_sorts_first() {
        // Just the ordering property the DDL protocol relies on.
        let mut names = ["guest", CATALOG_LATCH, "accounts"];
        names.sort_unstable();
        assert_eq!(names[0], CATALOG_LATCH);
    }

    #[test]
    fn panicking_holder_releases_latches() {
        let table = Arc::new(LatchTable::new());
        let table2 = Arc::clone(&table);
        let _ = std::thread::spawn(move || {
            let _guard = table2.acquire(&["t", "u"]);
            panic!("die mid-statement");
        })
        .join();
        // Both latches must be free again; a leak would hang here.
        let guard = table.acquire(&["t", "u"]);
        assert_eq!(guard.len(), 2);
    }

    #[test]
    fn waited_reports_contention() {
        let table = Arc::new(LatchTable::new());
        let held = table.acquire(&["t"]);
        let table2 = Arc::clone(&table);
        let waiter = std::thread::spawn(move || table2.acquire(&["t"]).waited());
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        assert!(waiter.join().unwrap() > Duration::ZERO);
        // And an uncontended acquisition reports zero.
        assert_eq!(table.acquire(&["free"]).waited(), Duration::ZERO);
    }
}
