//! dbgw-cache — the caching substrate shared by the gateway stack.
//!
//! The paper's CGI cost model pays full price on every request: fork, macro
//! parse, database connect, statement compile, query execute. The macro AST
//! is already cached (DESIGN.md §E9); this crate supplies the machinery for
//! the remaining reuse opportunities, wired in by the crates above it:
//!
//! * [`ShardedCache`] — a byte-budgeted, TTL-aware, sharded LRU used by
//!   minisql for both the prepared-statement cache and the SQL result cache.
//! * [`normalize_sql`] — the cache-key canonicalization: lowercases and
//!   collapses whitespace **only outside string literals**, and strips `--`
//!   comments, so `SELECT * FROM t` and `select  *  from T` share a key
//!   while `SELECT 'a  B'` and `SELECT 'a b'` never alias.
//! * [`fnv1a_64`] — a tiny stable content hash, used for shard selection
//!   here and for deterministic HTTP `ETag`s in the gateway.
//! * [`CacheConfig`] — the subsystem's switch, byte budget, TTL and shard count.
//!
//! The crate deliberately depends only on `dbgw-sync` (lock wrappers) and
//! `dbgw-obs` (the injectable [`Clock`](dbgw_obs::Clock) that makes TTL
//! expiry testable); it knows nothing about SQL values, row sets, or HTTP.
//! Callers map cache outcomes onto the global metrics themselves.

#![warn(missing_docs)]

mod config;
mod key;
mod lru;

pub use config::CacheConfig;
pub use key::{digest_sql, fnv1a_64, normalize_sql};
pub use lru::{CacheStatsSnapshot, Lookup, ShardedCache, Stored};
