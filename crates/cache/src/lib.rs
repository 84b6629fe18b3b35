//! dbgw-cache — the caching substrate shared by the gateway stack.
//!
//! The paper's CGI cost model pays full price on every request: fork, macro
//! parse, database connect, statement compile, query execute. The macro AST
//! is already cached (DESIGN.md §E9); this crate supplies the machinery for
//! the remaining reuse opportunities, wired in by the crates above it:
//!
//! * [`ShardedCache`] — a byte-budgeted, sharded LRU, used by minisql for
//!   the SQL result cache.
//! * [`normalize_sql`] — the cache-key canonicalization: lowercases and
//!   collapses whitespace **only outside string literals**, and strips `--`
//!   comments, so `SELECT * FROM t` and `select  *  from T` share a key
//!   while `SELECT 'a  B'` and `SELECT 'a b'` never alias.
//! * [`fnv1a_64`] — a tiny stable content hash, used for shard selection
//!   here and for deterministic HTTP `ETag`s in the gateway.
//! * [`CacheConfig`] — the result cache's byte budget.
//!
//! Two cache layers sit on it: minisql's SQL result cache, looked up before
//! a statement is parsed and invalidated exactly by table versions, and the
//! gateway's HTTP conditional GET (`ETag` / `304`). The crate depends only
//! on `dbgw-sync` and knows nothing about SQL values, row sets, or HTTP;
//! callers map cache outcomes onto the global metrics themselves.

#![warn(missing_docs)]

mod config;
mod key;
mod lru;

pub use config::CacheConfig;
pub use key::{digest_sql, fnv1a_64, normalize_sql};
pub use lru::{CacheStatsSnapshot, ShardedCache, Stored};
