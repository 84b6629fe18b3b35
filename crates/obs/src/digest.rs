//! Query **digest** aggregation — `pg_stat_statements` for the gateway.
//!
//! Every statement the engine executes is folded into a per-*shape* row: the
//! digest text is the statement with literals masked (computed by the caller
//! with `minisql::digest_sql`, from the same lexemes minisql's parser reads;
//! this crate stays dependency-free and takes the precomputed key + text), so `WHERE id = 7` and `WHERE id = 9`
//! aggregate together and no user-supplied literal ever reaches `/stats`.
//!
//! The store is sharded (FNV key → shard, one `Mutex` each, held for a few
//! loads/stores) and **bounded**: each shard holds at most
//! `capacity / SHARDS` digests and evicts the least-recently-used shape when
//! a new one arrives, counting the eviction in
//! [`crate::metrics::Metrics::digest_evictions`]. A gateway fed pathological
//! SQL (every statement a new shape) therefore has a hard memory ceiling.
//!
//! Attribution that only deeper layers know — did the result cache serve
//! this statement, how long did the writer wait on latches — flows through
//! thread-local **notes** ([`note_cache_hit`], [`note_latch_wait_ns`])
//! stamped by `minisql` while the statement runs and folded into the digest
//! row by the single [`DigestStore::record`] call at statement end.

use crate::metrics::{metrics, BUCKET_BOUNDS_NS};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of shards. Power of two; the shard index is the key's low bits.
const SHARDS: usize = 8;

/// Latency bucket count: [`BUCKET_BOUNDS_NS`] plus the overflow bucket.
const NBUCKETS: usize = BUCKET_BOUNDS_NS.len() + 1;

/// Everything one statement execution contributes to its digest row.
#[derive(Debug, Default, Clone, Copy)]
pub struct DigestObservation {
    /// Statement wall time, nanoseconds.
    pub dur_ns: u64,
    /// Did the statement fail (non-zero negative SQLCODE)?
    pub error: bool,
    /// Rows in the statement's result set (0 for DML/DDL).
    pub rows_returned: u64,
    /// Heap rows fetched while executing (scan + probe candidates).
    pub rows_scanned: u64,
    /// `Some(true)` if the SQL result cache served the statement,
    /// `Some(false)` on a miss, `None` when the cache was not consulted
    /// (DML, DDL, uncached connections).
    pub cache_hit: Option<bool>,
    /// Nanoseconds spent blocked on table latches.
    pub latch_wait_ns: u64,
}

/// One digest row, as stored (and snapshotted for rendering).
#[derive(Debug, Clone)]
pub struct DigestSnapshot {
    /// FNV-1a hash of the digest text — the row's identity.
    pub key: u64,
    /// The literal-masked statement text.
    pub text: String,
    /// Executions folded into this row.
    pub calls: u64,
    /// Executions that returned an error.
    pub errors: u64,
    /// Total result rows returned.
    pub rows_returned: u64,
    /// Total heap rows scanned.
    pub rows_scanned: u64,
    /// Executions served by the SQL result cache.
    pub cache_hits: u64,
    /// Executions that consulted the result cache and missed.
    pub cache_misses: u64,
    /// Total nanoseconds blocked on table latches.
    pub latch_wait_ns: u64,
    /// Total execution time, nanoseconds.
    pub total_ns: u64,
    /// Slowest single execution, nanoseconds.
    pub max_ns: u64,
    /// Latency histogram (non-cumulative; last entry is overflow) on
    /// [`BUCKET_BOUNDS_NS`].
    pub buckets: [u64; NBUCKETS],
}

impl DigestSnapshot {
    /// Mean execution time, nanoseconds.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.calls).unwrap_or(0)
    }

    /// Estimated p99 execution time in nanoseconds (upper bound of the
    /// bucket holding the 99th-percentile observation).
    pub fn p99_ns(&self) -> u64 {
        quantile_from_buckets(&self.buckets, 0.99)
    }
}

/// Upper-bound quantile over non-cumulative bucket counts aligned with
/// [`BUCKET_BOUNDS_NS`] (last slot = overflow). Returns the bound of the
/// bucket containing the `q`-quantile observation; overflow reports twice
/// the last bound. Zero observations → 0.
pub fn quantile_from_buckets(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return BUCKET_BOUNDS_NS
                .get(i)
                .copied()
                .unwrap_or(BUCKET_BOUNDS_NS[BUCKET_BOUNDS_NS.len() - 1] * 2);
        }
    }
    BUCKET_BOUNDS_NS[BUCKET_BOUNDS_NS.len() - 1] * 2
}

#[derive(Debug)]
struct Entry {
    text: String,
    calls: u64,
    errors: u64,
    rows_returned: u64,
    rows_scanned: u64,
    cache_hits: u64,
    cache_misses: u64,
    latch_wait_ns: u64,
    total_ns: u64,
    max_ns: u64,
    buckets: [u64; NBUCKETS],
    /// LRU stamp from the store's global tick.
    last_used: u64,
}

/// The sharded, bounded digest table. One per process ([`digests`]).
#[derive(Debug)]
pub struct DigestStore {
    shards: [Mutex<HashMap<u64, Entry>>; SHARDS],
    per_shard_cap: usize,
    tick: AtomicU64,
    enabled: AtomicBool,
}

impl DigestStore {
    /// A store holding at most `capacity` digests in total (rounded up to a
    /// multiple of the shard count), enabled per `enabled`.
    pub fn with_capacity(capacity: usize, enabled: bool) -> DigestStore {
        DigestStore {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            per_shard_cap: capacity.div_ceil(SHARDS).max(1),
            tick: AtomicU64::new(0),
            enabled: AtomicBool::new(enabled),
        }
    }

    /// Is digest recording on? Callers check this before computing the
    /// digest text, so a disabled store costs one relaxed load per
    /// statement.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off (benches measure both sides).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Fold one execution into the digest row for `key`, creating it (text
    /// is only cloned then) and LRU-evicting a cold digest if the shard is
    /// full.
    pub fn record(&self, key: u64, text: &str, obs: &DigestObservation) {
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let shard = &self.shards[(key as usize) & (SHARDS - 1)];
        let mut map = shard.lock().unwrap_or_else(|e| e.into_inner());
        let entry = match map.get_mut(&key) {
            Some(e) => e,
            None => {
                if map.len() >= self.per_shard_cap {
                    if let Some(&cold) = map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k)
                    {
                        map.remove(&cold);
                        metrics().digest_evictions.inc();
                    }
                }
                map.entry(key).or_insert_with(|| Entry {
                    text: text.to_owned(),
                    calls: 0,
                    errors: 0,
                    rows_returned: 0,
                    rows_scanned: 0,
                    cache_hits: 0,
                    cache_misses: 0,
                    latch_wait_ns: 0,
                    total_ns: 0,
                    max_ns: 0,
                    buckets: [0; NBUCKETS],
                    last_used: stamp,
                })
            }
        };
        entry.last_used = stamp;
        entry.calls += 1;
        entry.errors += u64::from(obs.error);
        entry.rows_returned += obs.rows_returned;
        entry.rows_scanned += obs.rows_scanned;
        match obs.cache_hit {
            Some(true) => entry.cache_hits += 1,
            Some(false) => entry.cache_misses += 1,
            None => {}
        }
        entry.latch_wait_ns += obs.latch_wait_ns;
        entry.total_ns += obs.dur_ns;
        entry.max_ns = entry.max_ns.max(obs.dur_ns);
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|&bound| obs.dur_ns <= bound)
            .unwrap_or(BUCKET_BOUNDS_NS.len());
        entry.buckets[idx] += 1;
    }

    /// Snapshot every digest row (unordered).
    pub fn snapshot(&self) -> Vec<DigestSnapshot> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let map = shard.lock().unwrap_or_else(|e| e.into_inner());
            out.extend(map.iter().map(|(&key, e)| DigestSnapshot {
                key,
                text: e.text.clone(),
                calls: e.calls,
                errors: e.errors,
                rows_returned: e.rows_returned,
                rows_scanned: e.rows_scanned,
                cache_hits: e.cache_hits,
                cache_misses: e.cache_misses,
                latch_wait_ns: e.latch_wait_ns,
                total_ns: e.total_ns,
                max_ns: e.max_ns,
                buckets: e.buckets,
            }));
        }
        out
    }

    /// The `n` digests with the largest total execution time, descending —
    /// the "where is the database spending its life" view.
    pub fn top_by_total_time(&self, n: usize) -> Vec<DigestSnapshot> {
        let mut all = self.snapshot();
        all.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.key.cmp(&b.key)));
        all.truncate(n);
        all
    }

    /// The `n` most-called digests, descending.
    pub fn top_by_calls(&self, n: usize) -> Vec<DigestSnapshot> {
        let mut all = self.snapshot();
        all.sort_by(|a, b| b.calls.cmp(&a.calls).then(a.key.cmp(&b.key)));
        all.truncate(n);
        all
    }

    /// Digest rows currently held.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every digest row (tests and `/stats` resets).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }
}

/// Distinct statement shapes the process-wide store tracks before evicting
/// the least recently used.
const DIGEST_CAPACITY: usize = 512;

/// The process-wide digest store, recording until
/// [`DigestStore::set_enabled`] switches it off.
pub fn digests() -> &'static DigestStore {
    static STORE: OnceLock<DigestStore> = OnceLock::new();
    STORE.get_or_init(|| DigestStore::with_capacity(DIGEST_CAPACITY, true))
}

// ---------------------------------------------------------------------------
// Thread-local per-statement notes.
// ---------------------------------------------------------------------------

thread_local! {
    static NOTE_CACHE_HIT: Cell<Option<bool>> = const { Cell::new(None) };
    static NOTE_LATCH_WAIT_NS: Cell<u64> = const { Cell::new(0) };
}

/// Note that the running statement hit (`true`) or missed (`false`) the SQL
/// result cache. Recorded by `minisql`; folded into the digest at statement
/// end.
pub fn note_cache_hit(hit: bool) {
    NOTE_CACHE_HIT.with(|c| c.set(Some(hit)));
}

/// Note nanoseconds the running statement spent blocked on table latches
/// (additive — a rollback may latch twice).
pub fn note_latch_wait_ns(ns: u64) {
    NOTE_LATCH_WAIT_NS.with(|c| c.set(c.get() + ns));
}

/// Take (and clear) the notes accumulated since the last call — the
/// `(cache_hit, latch_wait_ns)` pair for the statement that just finished.
pub fn take_notes() -> (Option<bool>, u64) {
    let hit = NOTE_CACHE_HIT.with(|c| c.replace(None));
    let latch = NOTE_LATCH_WAIT_NS.with(|c| c.replace(0));
    (hit, latch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(dur_ns: u64) -> DigestObservation {
        DigestObservation {
            dur_ns,
            ..DigestObservation::default()
        }
    }

    #[test]
    fn aggregates_per_key() {
        let store = DigestStore::with_capacity(64, true);
        store.record(
            1,
            "select * from t where id = ?",
            &DigestObservation {
                dur_ns: 1_000,
                rows_returned: 3,
                rows_scanned: 10,
                cache_hit: Some(false),
                ..Default::default()
            },
        );
        store.record(
            1,
            "select * from t where id = ?",
            &DigestObservation {
                dur_ns: 3_000,
                rows_returned: 3,
                rows_scanned: 0,
                cache_hit: Some(true),
                ..Default::default()
            },
        );
        store.record(
            2,
            "delete from t",
            &DigestObservation {
                dur_ns: 500,
                error: true,
                latch_wait_ns: 42,
                ..Default::default()
            },
        );
        assert_eq!(store.len(), 2);
        let top = store.top_by_calls(10);
        assert_eq!(top[0].calls, 2);
        assert_eq!(top[0].rows_returned, 6);
        assert_eq!(top[0].rows_scanned, 10);
        assert_eq!(top[0].cache_hits, 1);
        assert_eq!(top[0].cache_misses, 1);
        assert_eq!(top[0].total_ns, 4_000);
        assert_eq!(top[0].max_ns, 3_000);
        assert_eq!(top[0].mean_ns(), 2_000);
        assert_eq!(top[1].errors, 1);
        assert_eq!(top[1].latch_wait_ns, 42);
    }

    #[test]
    fn top_by_total_time_orders_by_cost() {
        let store = DigestStore::with_capacity(64, true);
        store.record(1, "cheap", &obs(10));
        for _ in 0..5 {
            store.record(2, "expensive", &obs(1_000_000));
        }
        let top = store.top_by_total_time(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].text, "expensive");
    }

    #[test]
    fn lru_evicts_the_coldest_digest() {
        // Keys in one shard: multiples of SHARDS land in shard 0.
        let store = DigestStore::with_capacity(2 * SHARDS, true);
        let k = |i: u64| i * SHARDS as u64;
        store.record(k(1), "one", &obs(1));
        store.record(k(2), "two", &obs(1));
        store.record(k(1), "one", &obs(1)); // touch "one": "two" is now coldest
        store.record(k(3), "three", &obs(1)); // shard full → evict "two"
        let texts: Vec<String> = store.snapshot().into_iter().map(|s| s.text).collect();
        assert!(texts.contains(&"one".to_owned()), "{texts:?}");
        assert!(texts.contains(&"three".to_owned()), "{texts:?}");
        assert!(!texts.contains(&"two".to_owned()), "{texts:?}");
    }

    #[test]
    fn p99_reports_the_slow_bucket_bound() {
        let store = DigestStore::with_capacity(8, true);
        for _ in 0..50 {
            store.record(1, "q", &obs(900)); // ≤ 1 µs bucket
        }
        store.record(1, "q", &obs(1_900_000)); // ≤ 2,048,000 ns bucket
                                               // 51 observations: the p99 rank (⌈0.99·51⌉ = 51) is the slow one.
        let snap = &store.top_by_calls(1)[0];
        assert_eq!(snap.p99_ns(), 2_048_000);
        // p50 stays in the fast bucket.
        assert_eq!(quantile_from_buckets(&snap.buckets, 0.50), 1_000);
    }

    #[test]
    fn quantiles_handle_empty_and_overflow() {
        assert_eq!(quantile_from_buckets(&[0; NBUCKETS], 0.99), 0);
        let mut b = [0u64; NBUCKETS];
        b[NBUCKETS - 1] = 1; // one overflow observation
        assert_eq!(
            quantile_from_buckets(&b, 0.99),
            BUCKET_BOUNDS_NS[BUCKET_BOUNDS_NS.len() - 1] * 2
        );
    }

    #[test]
    fn notes_round_trip_and_clear() {
        assert_eq!(take_notes(), (None, 0));
        note_cache_hit(true);
        note_latch_wait_ns(5);
        note_latch_wait_ns(7);
        assert_eq!(take_notes(), (Some(true), 12));
        assert_eq!(take_notes(), (None, 0));
    }

    #[test]
    fn disabled_flag_round_trips() {
        let store = DigestStore::with_capacity(8, false);
        assert!(!store.enabled());
        store.set_enabled(true);
        assert!(store.enabled());
    }
}
