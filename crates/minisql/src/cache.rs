//! The engine-side cache: SELECT results.
//!
//! The result cache lives in a [`DbCaches`] instance shared by every
//! connection to one [`Database`](crate::Database) and sits on the generic
//! [`ShardedCache`] from `dbgw-cache`. It maps (statement text, bind values)
//! → materialized [`ResultSet`], for `SELECT` only, and is consulted before
//! the statement is parsed, so a hit skips tokenizing, parsing and
//! execution alike. Each entry records the version of every table the query
//! read (captured from the same snapshot that ran it); a lookup revalidates
//! those versions, so any committed — or merely applied — write to a
//! referenced table makes the entry invisible immediately.
//!
//! The key is the statement text exactly as received (`result_key`), not
//! a canonical form: a second copy of the lexer's rules, deciding which
//! spellings are "the same statement", could only ever disagree with the
//! parser (an `AS Foo` alias is a column name, a form feed is a syntax
//! error). Bind values are encoded with explicit type tags and length
//! prefixes so `'1'` and `1` (or adjacent text params) can never alias.

use crate::ast::Select;
use crate::exec::ResultSet;
use crate::state::DbState;
use crate::types::Value;
use dbgw_cache::{CacheConfig, CacheStatsSnapshot, ShardedCache};
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cached SELECT result plus the table versions it depends on. Both
/// parts are shared, so a lookup's copy costs two reference counts.
#[derive(Debug, Clone)]
pub(crate) struct CachedSelect {
    /// The materialized rows, shared with every hit.
    pub rows: Arc<ResultSet>,
    /// `(lowercased table, version at read time)` for every referenced
    /// table, sorted and deduped. Empty for table-less SELECTs, which are
    /// always valid.
    pub deps: Arc<[(String, u64)]>,
}

/// The per-database result cache plus local counters. Shared by all
/// connections via `Arc`; absent from a
/// [`Database::without_cache`](crate::Database::without_cache).
pub struct DbCaches {
    /// Result-cache entries (see [`CachedSelect`]).
    pub(crate) results: ShardedCache<CachedSelect>,
    /// Lookups rejected because a referenced table's version moved.
    pub(crate) invalidations: AtomicU64,
}

impl DbCaches {
    /// Build the result cache from `config`.
    pub fn new(config: &CacheConfig) -> DbCaches {
        DbCaches {
            results: ShardedCache::new(config),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Snapshot the counters (per-instance, race-free for tests).
    pub fn stats(&self) -> DbCacheStats {
        DbCacheStats {
            results: self.results.stats(),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time counters for one database's result cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct DbCacheStats {
    /// Result-cache counters. The lookup precedes the parse, so `misses`
    /// also counts statements that turn out not to be SELECTs.
    pub results: CacheStatsSnapshot,
    /// Result-cache lookups rejected by table-version invalidation.
    pub invalidations: u64,
}

/// Build the result-cache key: the statement text exactly as the DBMS
/// receives it, behind its length, then the binds.
///
/// Identical text always parses identically, so only the same statement can
/// share an entry. The length prefix ends the text unambiguously, and each
/// value carries a type tag and, for text, a length — `t3:abc;` — so no two
/// distinct (statement, binds) pairs produce the same key (`["ab","c"]` vs
/// `["a","bc"]`, `1` vs `'1'`, NULL vs `'NULL'`, a bind vs statement text
/// that spells one).
pub(crate) fn result_key(sql: &str, params: &[Value]) -> String {
    let mut key = String::with_capacity(sql.len() + 16 * params.len() + 8);
    let _ = write!(key, "{}:{sql}", sql.len());
    for p in params {
        let _ = match p {
            Value::Null => write!(key, "n;"),
            Value::Int(i) => write!(key, "i{i};"),
            Value::Double(f) => write!(key, "f{:016x};", f.to_bits()),
            Value::Text(s) => write!(key, "t{}:{s};", s.len()),
        };
    }
    key
}

/// Approximate resident size of a result set, for byte-budget accounting.
pub(crate) fn result_cost(rs: &ResultSet) -> usize {
    let mut cost = 32;
    for c in &rs.columns {
        cost += c.len() + 24;
    }
    for row in &rs.rows {
        cost += 24;
        for v in row {
            cost += match v {
                Value::Text(s) => s.len() + 24,
                _ => 16,
            };
        }
    }
    cost
}

/// The table a SELECT reads, lowercased; none for a table-less SELECT.
pub(crate) fn referenced_tables(sel: &Select) -> Vec<String> {
    sel.from.iter().map(|t| t.to_ascii_lowercase()).collect()
}

/// Capture `(table, version)` dependencies for `sel` against `state`.
/// Must be called under the same read lock that runs the query.
pub(crate) fn capture_deps(state: &DbState, sel: &Select) -> Arc<[(String, u64)]> {
    referenced_tables(sel)
        .into_iter()
        .map(|t| {
            let v = state.version(&t);
            (t, v)
        })
        .collect()
}

/// Are all recorded dependencies still current in `state`?
pub(crate) fn deps_valid(state: &DbState, deps: &[(String, u64)]) -> bool {
    deps.iter().all(|(t, v)| state.version(t) == *v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse;

    fn tables_of(sql: &str) -> Vec<String> {
        match parse(sql).unwrap() {
            Statement::Select(sel) => referenced_tables(&sel),
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn tableless_select_has_no_deps() {
        assert!(tables_of("SELECT 1 + 1").is_empty());
    }

    #[test]
    fn case_insensitive_table_names() {
        assert_eq!(tables_of("SELECT * FROM GUEST"), vec!["guest"]);
    }

    #[test]
    fn result_keys_never_alias_across_types_or_splits() {
        use Value::*;
        let keys: Vec<String> = vec![
            result_key("select ?", &[Int(1)]),
            result_key("select ?", &[Text("1".into())]),
            result_key("select ?", &[Double(1.0)]),
            result_key("select ?", &[Null]),
            result_key("select ?", &[Text("NULL".into())]),
            result_key("select ?, ?", &[Text("ab".into()), Text("c".into())]),
            result_key("select ?, ?", &[Text("a".into()), Text("bc".into())]),
            result_key("select ?, ?", &[Text("a;b".into()), Text("c".into())]),
            result_key("select ?, ?", &[Text("a".into()), Text("b;c".into())]),
            // Text that spells a bind encoding never meets the bind itself.
            result_key("SELECT ? FROM t", &[Text("a\0i5".into())]),
            result_key("SELECT ? FROM t\0t4:a", &[Int(5)]),
            result_key("SELECT ? FROM t4:a", &[Int(5)]),
            result_key("SELECT ? FROM t", &[Text("a".into()), Int(5)]),
            // Spelling is part of the statement.
            result_key("SELECT ?", &[Int(1)]),
            result_key("select  ?", &[Int(1)]),
        ];
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "keys {i} and {j} alias");
            }
        }
    }
}
