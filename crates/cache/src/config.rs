//! The caching subsystem's settings, passed to whoever builds a cache.

/// Configuration for the caching subsystem. The gateway fills the first
/// three fields from `DBGW_CACHE`, `DBGW_CACHE_BYTES` and `DBGW_CACHE_TTL_MS`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Master switch; when false the gateway behaves exactly as if this
    /// subsystem did not exist.
    pub enabled: bool,
    /// Total byte budget across all shards of the result cache (4 MiB by
    /// default).
    pub max_bytes: usize,
    /// Optional time-to-live for cached entries, in milliseconds. `None`
    /// means entries live until evicted or invalidated. Correctness never
    /// depends on this: table-version invalidation is exact.
    pub ttl_ms: Option<u64>,
    /// Number of LRU shards (power of two). Each shard gets an equal slice
    /// of `max_bytes` and its own mutex.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: true,
            max_bytes: 4 * 1024 * 1024,
            ttl_ms: None,
            shards: 8,
        }
    }
}

impl CacheConfig {
    /// A configuration with every cache layer switched off.
    pub fn disabled() -> CacheConfig {
        CacheConfig {
            enabled: false,
            ..CacheConfig::default()
        }
    }
}
