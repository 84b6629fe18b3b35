//! Selectivity estimation over the per-table statistics of [`crate::stats`].
//!
//! * **Access path** — `probe_worthwhile` estimates a sargable conjunct's
//!   selectivity and votes against an index probe when the predicate keeps
//!   more than half the table (a full scan touches each row once; a wide
//!   probe touches almost all of them *plus* the index).
//! * **EXPLAIN's `est rows`** — `estimate_rows` is the table's row count
//!   times the selectivity of each of its scan's filters.
//!
//! Conjuncts are read through `plan::sargable`, the same "column op
//! constant" normalizer the access-path choice uses. Estimates use equality
//! selectivity `1/NDV` and histogram interpolation for ranges, sized to the
//! statistics the engine actually keeps.

use crate::ast::{Expr, TableRef};
use crate::plan::{column_of, sargable, Keys, Sargable};
use crate::state::{DbState, TableData};
use crate::stats::{numeric, TableStats};
use crate::types::Value;
use std::ops::Bound;

/// Default selectivity for predicates the model cannot estimate.
const DEFAULT_SEL: f64 = 0.33;
/// LIKE keeps roughly this fraction (prefix patterns are the common case).
const LIKE_SEL: f64 = 0.1;
/// Above this estimated selectivity an index probe loses to the full scan.
const PROBE_SEL_CEILING: f64 = 0.5;

/// Per-column stats for `e` when it is a bare column of `table`.
fn column_stats<'a>(
    state: &'a DbState,
    table: &TableRef,
    e: &Expr,
) -> Option<&'a crate::stats::ColumnStats> {
    let t = state.table(&table.name).ok()?;
    let ordinal = t
        .schema
        .column_index(&column_of(e, table.effective_name())?.column)?;
    t.stats.as_ref()?.columns.get(ordinal)
}

/// Estimated fraction of `table`'s rows a single-table conjunct keeps.
fn conj_selectivity(state: &DbState, table: &TableRef, conj: &Expr, params: &[Value]) -> f64 {
    let Ok(t) = state.table(&table.name) else {
        return DEFAULT_SEL;
    };
    let Some(stats) = &t.stats else {
        return DEFAULT_SEL;
    };
    if let Some(s) = sargable(conj, table.effective_name(), &t.schema, params) {
        return sargable_selectivity(stats, &s);
    }
    match conj {
        Expr::IsNull { expr, negated } => {
            let Some(cs) = column_stats(state, table, expr) else {
                return DEFAULT_SEL;
            };
            let null_frac = cs.nulls as f64 / stats.rows.max(1) as f64;
            if *negated {
                1.0 - null_frac
            } else {
                null_frac
            }
        }
        Expr::Like { negated: true, .. } => 1.0 - LIKE_SEL,
        Expr::Like { .. } => LIKE_SEL,
        _ => DEFAULT_SEL,
    }
}

/// Estimated fraction of rows a sargable conjunct keeps: `1/NDV` per
/// equality key, histogram interpolation for ranges, the complement when
/// negated.
fn sargable_selectivity(stats: &TableStats, s: &Sargable) -> f64 {
    let Some(keys) = &s.keys else {
        return 0.0;
    };
    let Some(cs) = stats.columns.get(s.ordinal) else {
        return DEFAULT_SEL;
    };
    let eq_sel = 1.0 / cs.distinct().max(1) as f64;
    let kept = match keys {
        Keys::Eq(_) => eq_sel,
        Keys::In(values) => (values.len() as f64 * eq_sel).min(1.0),
        Keys::Prefix(_) => LIKE_SEL,
        Keys::Range(lo, hi) => {
            let Some(h) = &cs.histogram else {
                return DEFAULT_SEL;
            };
            // Fraction of rows below each end; an included upper (excluded
            // lower) endpoint's own rows, ~1/NDV, fall inside (outside).
            let below = |v: &Value, plus_eq: bool| {
                numeric(v.view()).map(|n| h.fraction_below(n) + if plus_eq { eq_sel } else { 0.0 })
            };
            let upper = match hi {
                Bound::Unbounded => Some(1.0),
                Bound::Included(v) => below(v, true),
                Bound::Excluded(v) => below(v, false),
            };
            let lower = match lo {
                Bound::Unbounded => Some(0.0),
                Bound::Included(v) => below(v, false),
                Bound::Excluded(v) => below(v, true),
            };
            let (Some(upper), Some(lower)) = (upper, lower) else {
                return DEFAULT_SEL;
            };
            (upper.min(1.0) - lower).clamp(0.0, 1.0)
        }
    };
    if s.negated {
        1.0 - kept
    } else {
        kept
    }
}

/// Should the executor probe an index for the sargable conjunct `s` on
/// `table`? `false` only when statistics exist *and* say the predicate keeps
/// more than half the table; without stats a probe is always tried.
pub(crate) fn probe_worthwhile(table: &TableData, s: &Sargable) -> bool {
    (table.stats.as_ref()).is_none_or(|stats| sargable_selectivity(stats, s) <= PROBE_SEL_CEILING)
}

/// Estimated rows a scan of `table` keeps: the table's rows times the
/// selectivity of each of the scan's `filters`. `None` for an unknown table.
pub(crate) fn estimate_rows(
    state: &DbState,
    table: &TableRef,
    filters: &[&Expr],
    params: &[Value],
) -> Option<f64> {
    let data = state.table(&table.name).ok()?;
    let rows = (data.stats.as_ref()).map_or(data.heap.len() as f64, |s| s.rows as f64);
    let kept: f64 = (filters.iter())
        .map(|conj| conj_selectivity(state, table, conj, params))
        .product();
    Some((rows * kept).max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Select, Statement};
    use crate::db::Database;
    use crate::eval::Bindings;
    use crate::parser::parse;
    use crate::plan::{plan_select, PlanOptions};

    fn sel(sql: &str) -> Select {
        match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    /// `big`: 1000 rows, a unique id and 10 distinct k.
    fn big_db() -> Database {
        let db = Database::new();
        db.run_script("CREATE TABLE big (id INTEGER PRIMARY KEY, k INTEGER);")
            .unwrap();
        let mut conn = db.connect();
        conn.execute("BEGIN").unwrap();
        for i in 0..1000 {
            conn.execute_with_params(
                "INSERT INTO big VALUES (?, ?)",
                &[Value::Int(i), Value::Int(i % 10)],
            )
            .unwrap();
        }
        conn.execute("COMMIT").unwrap();
        db
    }

    #[test]
    fn estimate_steps_shrink_with_selective_predicates() {
        let db = big_db();
        let snapshot = db.pin();
        let est = |sql: &str| {
            let sel = sel(sql);
            let table = sel.from.as_ref().unwrap();
            let scope = Bindings::single("big", vec!["id".into(), "k".into()]);
            let plan = plan_select(&snapshot, &sel, &scope, &[], &PlanOptions::default());
            estimate_rows(&snapshot, table, &plan.scan.unwrap().filters, &[]).unwrap()
        };
        assert_eq!(est("SELECT id FROM big"), 1000.0);
        // id is unique: the filtered estimate is ~1 row.
        let point = est("SELECT id FROM big WHERE id = 7");
        assert!(point <= 2.0, "point estimate {point} too high");
        // `1 = 1` names no column: it is no scan filter and keeps the estimate.
        let k = est("SELECT id FROM big WHERE k = 3 AND 1 = 1");
        assert!((50.0..=200.0).contains(&k), "k estimate {k}");
    }

    #[test]
    fn probe_not_worthwhile_for_wide_range() {
        let db = big_db();
        let snapshot = db.pin();
        // id > 5 keeps ~99.5% of big: scanning wins over probing.
        let wide = sel("SELECT id FROM big WHERE id > 5");
        let narrow = sel("SELECT id FROM big WHERE id = 5");
        let big = snapshot.table("big").unwrap();
        let worthwhile = |s: &Select| {
            let conj = s.where_clause.as_ref().unwrap();
            probe_worthwhile(big, &sargable(conj, "big", &big.schema, &[]).unwrap())
        };
        assert!(!worthwhile(&wide));
        assert!(worthwhile(&narrow));
    }
}
