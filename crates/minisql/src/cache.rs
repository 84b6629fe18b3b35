//! The engine-side cache: SELECT results.
//!
//! The result cache lives in a [`DbCaches`] instance shared by every
//! connection to one [`Database`](crate::Database) and sits on the generic
//! [`ShardedCache`] from `dbgw-cache`. It maps (normalized SQL, bind values)
//! → materialized [`ResultSet`], for `SELECT` only, and is consulted before
//! the statement is parsed, so a hit skips tokenizing, parsing and
//! execution alike. Each entry records the version of every table the query
//! read (captured from the same snapshot that ran it); a lookup revalidates
//! those versions, so any committed — or merely applied — write to a
//! referenced table makes the entry invisible immediately.
//!
//! Keys are built with [`dbgw_cache::normalize_sql`], which canonicalizes
//! whitespace/case only *outside* string literals, and bind values are
//! encoded with explicit type tags and length prefixes so `'1'` and `1`
//! (or adjacent text params) can never alias.

use crate::ast::{Expr, Select, SelectItem};
use crate::exec::ResultSet;
use crate::state::DbState;
use crate::types::Value;
use dbgw_cache::{CacheConfig, CacheStatsSnapshot, ShardedCache};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cached SELECT result plus the table versions it depends on.
#[derive(Debug, Clone)]
pub(crate) struct CachedSelect {
    /// The materialized rows.
    pub rows: ResultSet,
    /// `(lowercased table, version at read time)` for every referenced
    /// table, sorted and deduped. Empty for table-less SELECTs, which are
    /// always valid.
    pub deps: Vec<(String, u64)>,
}

/// The per-database result cache plus local counters. Shared by all
/// connections via `Arc`; absent from a
/// [`Database::without_cache`](crate::Database::without_cache).
pub struct DbCaches {
    /// Result-cache entries (see [`CachedSelect`]).
    pub(crate) results: ShardedCache<Arc<CachedSelect>>,
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

/// Build the result-cache key for a normalized statement and its binds.
///
/// Values are encoded with a type tag and, for text, a length prefix —
/// `t3:abc;` — so no two distinct bind vectors can produce the same key
/// (`["ab","c"]` vs `["a","bc"]`, `1` vs `'1'`, NULL vs `'NULL'`).
pub(crate) fn result_key(normalized_sql: &str, params: &[Value]) -> String {
    let mut key = String::with_capacity(normalized_sql.len() + 16 * params.len() + 1);
    key.push_str(normalized_sql);
    key.push('\0');
    for p in params {
        match p {
            Value::Null => key.push_str("n;"),
            Value::Int(i) => {
                key.push('i');
                key.push_str(&i.to_string());
                key.push(';');
            }
            Value::Double(f) => {
                key.push('f');
                key.push_str(&format!("{:016x}", f.to_bits()));
                key.push(';');
            }
            Value::Text(s) => {
                key.push('t');
                key.push_str(&s.len().to_string());
                key.push(':');
                key.push_str(s);
                key.push(';');
            }
            Value::Date(d) => {
                key.push('d');
                key.push_str(&d.to_string());
                key.push(';');
            }
        }
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

/// Every table a SELECT reads (FROM, JOINs, set operations, and subqueries
/// in any expression position), lowercased, sorted, deduped.
pub(crate) fn referenced_tables(sel: &Select) -> Vec<String> {
    let mut out = Vec::new();
    collect_select(sel, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

/// Capture `(table, version)` dependencies for `sel` against `state`.
/// Must be called under the same read lock that runs the query.
pub(crate) fn capture_deps(state: &DbState, sel: &Select) -> Vec<(String, u64)> {
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

fn collect_select(sel: &Select, out: &mut Vec<String>) {
    if let Some(t) = &sel.from {
        out.push(t.name.to_ascii_lowercase());
    }
    for join in &sel.joins {
        out.push(join.table.name.to_ascii_lowercase());
        if let Some(on) = &join.on {
            collect_expr(on, out);
        }
    }
    for item in &sel.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect_expr(expr, out);
        }
    }
    if let Some(e) = &sel.where_clause {
        collect_expr(e, out);
    }
    for e in &sel.group_by {
        collect_expr(e, out);
    }
    if let Some(e) = &sel.having {
        collect_expr(e, out);
    }
    for key in &sel.order_by {
        collect_expr(&key.expr, out);
    }
    for (_, s) in &sel.set_ops {
        collect_select(s, out);
    }
}

fn collect_expr(expr: &Expr, out: &mut Vec<String>) {
    match expr {
        Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) => {}
        Expr::Neg(e) | Expr::Not(e) => collect_expr(e, out),
        Expr::Binary { lhs, rhs, .. } => {
            collect_expr(lhs, out);
            collect_expr(rhs, out);
        }
        Expr::Like { expr, pattern, .. } => {
            collect_expr(expr, out);
            collect_expr(pattern, out);
        }
        Expr::IsNull { expr, .. } => collect_expr(expr, out),
        Expr::InList { expr, list, .. } => {
            collect_expr(expr, out);
            for e in list {
                collect_expr(e, out);
            }
        }
        Expr::Between { expr, lo, hi, .. } => {
            collect_expr(expr, out);
            collect_expr(lo, out);
            collect_expr(hi, out);
        }
        Expr::Func { args, .. } => {
            for e in args {
                collect_expr(e, out);
            }
        }
        Expr::Agg { arg, .. } => {
            if let Some(e) = arg {
                collect_expr(e, out);
            }
        }
        Expr::Subquery(s) => collect_select(s, out),
        Expr::InSelect { expr, select, .. } => {
            collect_expr(expr, out);
            collect_select(select, out);
        }
        Expr::Exists { select, .. } => collect_select(select, out),
        Expr::Window(w) => {
            if let crate::ast::WindowFunc::Agg { arg: Some(a), .. } = &w.func {
                collect_expr(a, out);
            }
            for e in &w.partition_by {
                collect_expr(e, out);
            }
            for key in &w.order_by {
                collect_expr(&key.expr, out);
            }
        }
        Expr::Case {
            operand,
            arms,
            otherwise,
        } => {
            if let Some(e) = operand {
                collect_expr(e, out);
            }
            for (when, then) in arms {
                collect_expr(when, out);
                collect_expr(then, out);
            }
            if let Some(e) = otherwise {
                collect_expr(e, out);
            }
        }
        Expr::Cast { expr, .. } => collect_expr(expr, out),
    }
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
    fn from_and_joins_collected() {
        assert_eq!(tables_of("SELECT * FROM a"), vec!["a"]);
        assert_eq!(
            tables_of("SELECT * FROM a JOIN b ON a.x = b.x LEFT OUTER JOIN c ON b.y = c.y"),
            vec!["a", "b", "c"]
        );
    }

    #[test]
    fn subqueries_in_every_position_collected() {
        assert_eq!(
            tables_of("SELECT (SELECT MAX(x) FROM s1) FROM a WHERE a.x IN (SELECT x FROM s2)"),
            vec!["a", "s1", "s2"]
        );
        assert_eq!(
            tables_of("SELECT * FROM a WHERE EXISTS (SELECT 1 FROM s3)"),
            vec!["a", "s3"]
        );
    }

    #[test]
    fn set_ops_collected_and_deduped() {
        assert_eq!(
            tables_of("SELECT x FROM a UNION SELECT x FROM b UNION ALL SELECT x FROM a"),
            vec!["a", "b"]
        );
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
            result_key("select ?", &[Date(1)]),
            result_key("select ?, ?", &[Text("ab".into()), Text("c".into())]),
            result_key("select ?, ?", &[Text("a".into()), Text("bc".into())]),
            result_key("select ?, ?", &[Text("a;b".into()), Text("c".into())]),
            result_key("select ?, ?", &[Text("a".into()), Text("b;c".into())]),
        ];
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "keys {i} and {j} alias");
            }
        }
    }
}
