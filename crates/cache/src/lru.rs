//! A sharded, byte-budgeted LRU cache.
//!
//! Each shard is an independent LRU behind its own mutex, holding an equal
//! slice of the total byte budget. Entries are charged their caller-supplied
//! cost plus key length plus a fixed per-entry overhead; an entry that would
//! not fit in an empty shard is rejected outright, which is what makes the
//! invariant `bytes() <= max_bytes` unconditional — the property test in
//! `tests/properties.rs` leans on it.
//!
//! The LRU list is intrusive: entries live in a slab `Vec` and carry
//! prev/next indices, with a free list for reuse. No allocation happens on
//! the hit path beyond cloning the value out.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use dbgw_sync::Mutex;

use crate::config::CacheConfig;
use crate::key::fnv1a_64;

/// Fixed per-entry bookkeeping charge added to the caller-supplied cost,
/// approximating the slab + hash-map overhead per entry.
const ENTRY_OVERHEAD: usize = 64;

/// Number of shards; each gets an equal slice of the byte budget and its
/// own mutex.
const SHARDS: usize = 8;

/// Sentinel index for "no link".
const NIL: usize = usize::MAX;

/// Outcome of a [`ShardedCache::put`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stored {
    /// Whether the entry was actually stored (false when it exceeds the
    /// shard budget on its own).
    pub stored: bool,
    /// How many resident entries were evicted to make room.
    pub evicted: u64,
}

/// A point-in-time view of a cache's internal counters, for tests and
/// `/stats`. All counts are since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Lookups that found a value.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries pushed out to make room for newer ones.
    pub evictions: u64,
    /// Bytes currently charged against the budget.
    pub bytes: usize,
}

struct Entry<V> {
    key: String,
    value: V,
    charge: usize,
    prev: usize,
    next: usize,
}

struct Shard<V> {
    map: HashMap<String, usize>,
    slab: Vec<Option<Entry<V>>>,
    free: Vec<usize>,
    /// Most-recently-used entry, or `NIL`.
    head: usize,
    /// Least-recently-used entry, or `NIL`.
    tail: usize,
    bytes: usize,
}

impl<V> Shard<V> {
    fn new() -> Shard<V> {
        Shard {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    fn entry(&self, idx: usize) -> &Entry<V> {
        self.slab[idx].as_ref().expect("live slab index")
    }

    fn entry_mut(&mut self, idx: usize) -> &mut Entry<V> {
        self.slab[idx].as_mut().expect("live slab index")
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let e = self.entry(idx);
            (e.prev, e.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.entry_mut(prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.entry_mut(next).prev = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let e = self.entry_mut(idx);
            e.prev = NIL;
            e.next = old_head;
        }
        if old_head != NIL {
            self.entry_mut(old_head).prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Remove the entry at `idx` entirely, returning its charge.
    fn remove_index(&mut self, idx: usize) -> usize {
        self.unlink(idx);
        let entry = self.slab[idx].take().expect("live slab index");
        self.map.remove(&entry.key);
        self.free.push(idx);
        self.bytes -= entry.charge;
        entry.charge
    }

    fn insert_entry(&mut self, entry: Entry<V>) {
        let charge = entry.charge;
        let key = entry.key.clone();
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Some(entry);
                i
            }
            None => {
                self.slab.push(Some(entry));
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        self.bytes += charge;
    }
}

/// A sharded LRU cache mapping `String` keys to clonable values, with a
/// total byte budget split evenly across its shards.
pub struct ShardedCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> ShardedCache<V> {
    /// Build a cache holding at most `config.max_bytes`.
    pub fn new(config: &CacheConfig) -> ShardedCache<V> {
        ShardedCache::with_shards(config.max_bytes, SHARDS)
    }

    fn with_shards(max_bytes: usize, shards: usize) -> ShardedCache<V> {
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_budget: max_bytes / shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &str) -> &Mutex<Shard<V>> {
        let h = fnv1a_64(key.as_bytes()) as usize;
        &self.shards[h % self.shards.len()]
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<V> {
        let mut shard = self.shard_for(key).lock();
        let Some(&idx) = shard.map.get(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        shard.unlink(idx);
        shard.push_front(idx);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(shard.entry(idx).value.clone())
    }

    /// Insert `key` → `value`, charged at `cost` bytes (plus key length and
    /// fixed overhead). Replaces any existing entry under the same key.
    /// Evicts from the cold end until the entry fits; an entry that cannot
    /// fit in an empty shard is not stored at all.
    pub fn put(&self, key: String, value: V, cost: usize) -> Stored {
        let charge = cost + key.len() + ENTRY_OVERHEAD;
        let mut shard = self.shard_for(&key).lock();
        if let Some(&idx) = shard.map.get(&key) {
            shard.remove_index(idx);
        }
        if charge > self.shard_budget {
            return Stored {
                stored: false,
                evicted: 0,
            };
        }
        let mut evicted = 0;
        while shard.bytes + charge > self.shard_budget {
            let tail = shard.tail;
            debug_assert_ne!(tail, NIL, "charge fits, so eviction must terminate");
            shard.remove_index(tail);
            evicted += 1;
        }
        shard.insert_entry(Entry {
            key,
            value,
            charge,
            prev: NIL,
            next: NIL,
        });
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        Stored {
            stored: true,
            evicted,
        }
    }

    /// Remove `key` if present; returns whether anything was removed.
    pub fn remove(&self, key: &str) -> bool {
        let mut shard = self.shard_for(key).lock();
        match shard.map.get(key) {
            Some(&idx) => {
                shard.remove_index(idx);
                true
            }
            None => false,
        }
    }

    /// Drop every entry.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            *shard = Shard::new();
        }
    }

    /// Bytes currently charged against the budget, across all shards.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Number of resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the internal counters. Per-instance, so parallel tests
    /// never race on global metrics.
    pub fn stats(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: self.bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shard makes LRU order deterministic for these tests.
    fn cache(max_bytes: usize) -> ShardedCache<String> {
        ShardedCache::with_shards(max_bytes, 1)
    }

    #[test]
    fn hit_after_put_miss_before() {
        let c = cache(4096);
        assert_eq!(c.get("k"), None);
        assert!(c.put("k".into(), "v".into(), 10).stored);
        assert_eq!(c.get("k"), Some("v".into()));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn replaces_existing_key_without_double_charge() {
        let c = cache(4096);
        c.put("k".into(), "a".into(), 100);
        let before = c.bytes();
        c.put("k".into(), "b".into(), 100);
        assert_eq!(c.bytes(), before);
        assert_eq!(c.get("k"), Some("b".into()));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        // Budget fits exactly two entries of charge 1 + 64 + 100 = 165.
        let c = cache(330);
        c.put("a".into(), "1".into(), 100);
        c.put("b".into(), "2".into(), 100);
        // Touch "a" so "b" is now coldest.
        assert_eq!(c.get("a"), Some("1".into()));
        let stored = c.put("c".into(), "3".into(), 100);
        assert_eq!(stored.evicted, 1);
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get("a"), Some("1".into()));
        assert_eq!(c.get("c"), Some("3".into()));
    }

    #[test]
    fn oversized_entry_is_rejected() {
        let c = cache(128);
        let stored = c.put("big".into(), "x".into(), 10_000);
        assert!(!stored.stored);
        assert_eq!(c.len(), 0);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn bytes_never_exceed_budget() {
        let c = cache(1000);
        for i in 0..100 {
            c.put(format!("key-{i}"), "v".repeat(i % 40), i % 200);
            assert!(c.bytes() <= 1000, "bytes {} > budget", c.bytes());
        }
    }

    #[test]
    fn remove_and_clear() {
        let c = cache(4096);
        c.put("a".into(), "1".into(), 10);
        c.put("b".into(), "2".into(), 10);
        assert!(c.remove("a"));
        assert!(!c.remove("a"));
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let c = cache(330);
        for round in 0..50 {
            c.put(format!("k{}", round % 3), format!("v{round}"), 100);
        }
        // Only ~2 entries ever fit; the slab must not have grown to 50.
        assert!(c.len() <= 2);
    }

    #[test]
    fn sharded_cache_spreads_keys() {
        let c: ShardedCache<u32> = ShardedCache::new(&CacheConfig::default());
        for i in 0..64 {
            c.put(format!("key-{i}"), i, 16);
        }
        assert_eq!(c.len(), 64);
        for i in 0..64 {
            assert_eq!(c.get(&format!("key-{i}")), Some(i));
        }
    }
}
