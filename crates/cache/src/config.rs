//! The caching subsystem's settings, passed to whoever builds a cache.

/// Configuration for the SQL result cache. The gateway fills it from
/// `DBGW_CACHE_BYTES`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total byte budget across all shards (4 MiB by default).
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_bytes: 4 * 1024 * 1024,
        }
    }
}
