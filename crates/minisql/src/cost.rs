//! Selectivity estimation and cost-based join ordering.
//!
//! The cost model consumes the per-table statistics of [`crate::stats`] and
//! makes two kinds of decisions:
//!
//! * **Join order** — `reorder_select` rewrites an eligible multi-way
//!   inner-join SELECT into the greedy smallest-intermediate order: start
//!   from the table with the smallest *filtered* cardinality, then repeatedly
//!   add the connected table that minimizes the estimated intermediate
//!   result, leaving cross joins for last. The rewrite merges every ON
//!   conjunct and the WHERE clause into one conjunction, so the existing
//!   pushdown/hash-key classifier in [`crate::plan`] re-derives join keys
//!   for the new order; plan choices change performance, never results.
//! * **Access path** — `probe_worthwhile` estimates a sargable conjunct's
//!   selectivity and votes against an index probe when the predicate keeps
//!   more than half the table (a full scan touches each row once; a wide
//!   probe touches almost all of them *plus* the index).
//!
//! Single-table conjuncts are read through `plan::sargable`, the
//! same "column op constant" normalizer the access-path choice uses.
//!
//! Estimates use equality selectivity `1/NDV`, histogram interpolation for
//! ranges, and `1/max(NDV_l, NDV_r)` for equi-join edges — the classic
//! System-R repertoire, sized to the statistics the engine actually keeps.

use crate::ast::{BinOp, Expr, Join, Select, SelectItem, TableRef};
use crate::eval::Bindings;
use crate::plan::{column_of, conjunct_mask, flatten_and, sargable, Keys, Sargable};
use crate::state::{DbState, TableData};
use crate::stats::{numeric, TableStats};
use crate::types::Value;
use std::ops::Bound;

/// Default selectivity for predicates the model cannot estimate.
const DEFAULT_SEL: f64 = 0.33;
/// Default selectivity for an equi-join edge with no NDV on either side.
const DEFAULT_EQ_JOIN_SEL: f64 = 0.1;
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
                numeric(v).map(|n| h.fraction_below(n) + if plus_eq { eq_sel } else { 0.0 })
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

/// The join graph over a SELECT's tables: filtered per-table cardinalities
/// plus pairwise selectivity edges.
struct Graph {
    /// Estimated rows of each table after its single-table conjuncts.
    card: Vec<f64>,
    /// `(table_a, table_b, selectivity)` with `a < b`; multiple conjuncts on
    /// the same pair appear as separate (multiplying) edges.
    edges: Vec<(usize, usize, f64)>,
}

/// Estimated distinct count of `e` when it is a simple column of table `t`.
fn side_ndv(state: &DbState, tables: &[TableRef], t: usize, e: &Expr) -> Option<f64> {
    let cs = column_stats(state, tables.get(t)?, e)?;
    Some(cs.distinct().max(1) as f64)
}

/// Selectivity of a two-table join conjunct.
fn edge_selectivity(state: &DbState, tables: &[TableRef], a: usize, b: usize, conj: &Expr) -> f64 {
    if let Expr::Binary {
        op: BinOp::Eq,
        lhs,
        rhs,
    } = conj
    {
        // `l = r`: which side belongs to which table is irrelevant for
        // 1/max(NDV) — try both assignments.
        let ndv_l = side_ndv(state, tables, a, lhs).or_else(|| side_ndv(state, tables, b, lhs));
        let ndv_r = side_ndv(state, tables, a, rhs).or_else(|| side_ndv(state, tables, b, rhs));
        return match (ndv_l, ndv_r) {
            (Some(l), Some(r)) => 1.0 / l.max(r),
            (Some(n), None) | (None, Some(n)) => 1.0 / n,
            (None, None) => DEFAULT_EQ_JOIN_SEL,
        };
    }
    DEFAULT_SEL
}

/// Build the join graph for `sel`, whose FROM-clause tables are `tables`.
/// `None` when any table is unknown (the executor will produce the error).
fn build_graph(
    state: &DbState,
    sel: &Select,
    tables: &[TableRef],
    params: &[Value],
) -> Option<Graph> {
    let mut bindings: Option<Bindings> = None;
    for t in tables {
        let cols: Vec<String> = state
            .table(&t.name)
            .ok()?
            .schema
            .columns
            .iter()
            .map(|c| c.name.clone())
            .collect();
        match &mut bindings {
            None => bindings = Some(Bindings::single(t.effective_name(), cols)),
            Some(b) => b.push_table(t.effective_name(), cols),
        }
    }
    let bindings = bindings?;

    let mut conjuncts: Vec<&Expr> = Vec::new();
    for join in &sel.joins {
        if let Some(on) = &join.on {
            flatten_and(on, &mut conjuncts);
        }
    }
    if let Some(w) = &sel.where_clause {
        flatten_and(w, &mut conjuncts);
    }

    let mut card: Vec<f64> = Vec::with_capacity(tables.len());
    for t in tables {
        let rows = match state.table(&t.name).ok()?.stats.as_ref() {
            Some(s) => s.rows as f64,
            None => state.table(&t.name).ok()?.heap.len() as f64,
        };
        card.push(rows.max(1.0));
    }
    let mut edges = Vec::new();
    for conj in conjuncts {
        let Some(mask) = conjunct_mask(conj, &bindings) else {
            continue; // unclassifiable: no effect on the estimate
        };
        match mask.count_ones() {
            1 => {
                let t = mask.trailing_zeros() as usize;
                card[t] *= conj_selectivity(state, &tables[t], conj, params);
            }
            2 => {
                let a = mask.trailing_zeros() as usize;
                let b = 63 - mask.leading_zeros() as usize;
                edges.push((a, b, edge_selectivity(state, tables, a, b, conj)));
            }
            _ => {} // 0 tables (constant) or 3+: no effect on the estimate
        }
    }
    for c in card.iter_mut() {
        *c = c.max(1.0);
    }
    Some(Graph { card, edges })
}

/// Greedy smallest-intermediate join order over `g`: seed with the smallest
/// filtered table, then repeatedly append the (preferably connected) table
/// that minimizes the running intermediate cardinality. Ties break on the
/// lower syntactic position, keeping the choice deterministic.
fn greedy_order(g: &Graph) -> Vec<usize> {
    let n = g.card.len();
    let mut order = Vec::with_capacity(n);
    let mut chosen = vec![false; n];
    let start = (0..n)
        .min_by(|&a, &b| g.card[a].total_cmp(&g.card[b]).then(a.cmp(&b)))
        .expect("at least one table");
    order.push(start);
    chosen[start] = true;
    let mut cur = g.card[start];
    while order.len() < n {
        let step = |j: usize| -> f64 {
            let mut est = cur * g.card[j];
            for &(a, b, sel) in &g.edges {
                if (a == j && chosen[b]) || (b == j && chosen[a]) {
                    est *= sel;
                }
            }
            est
        };
        let connected = |j: usize| {
            g.edges
                .iter()
                .any(|&(a, b, _)| (a == j && chosen[b]) || (b == j && chosen[a]))
        };
        let candidates: Vec<usize> = {
            let linked: Vec<usize> = (0..n).filter(|&j| !chosen[j] && connected(j)).collect();
            if linked.is_empty() {
                (0..n).filter(|&j| !chosen[j]).collect() // cross joins last
            } else {
                linked
            }
        };
        let next = candidates
            .into_iter()
            .min_by(|&a, &b| step(a).total_cmp(&step(b)).then(a.cmp(&b)))
            .expect("candidates nonempty");
        cur = step(next).max(1.0);
        order.push(next);
        chosen[next] = true;
    }
    order
}

/// Cumulative estimated rows along `sel`'s syntactic join order: element 0
/// is the filtered base scan, element `j + 1` the result after join `j`.
pub(crate) fn estimate_steps(state: &DbState, sel: &Select, params: &[Value]) -> Option<Vec<f64>> {
    let tables = from_tables(sel)?;
    let g = build_graph(state, sel, &tables, params)?;
    let mut steps = Vec::with_capacity(tables.len());
    let mut cur = g.card[0];
    steps.push(cur);
    for j in 1..tables.len() {
        let mut est = cur * g.card[j];
        for &(a, b, sel) in &g.edges {
            if (a < j && b == j) || (b < j && a == j) {
                est *= sel;
            }
        }
        cur = est.max(1.0);
        steps.push(cur);
    }
    Some(steps)
}

/// The FROM-clause tables of `sel` in syntactic order, or `None` for a
/// table-less SELECT.
fn from_tables(sel: &Select) -> Option<Vec<TableRef>> {
    let base = sel.from.as_ref()?;
    let mut tables = vec![base.clone()];
    tables.extend(sel.joins.iter().map(|j| j.table.clone()));
    Some(tables)
}

/// Rewrite `sel` into the cost model's join order, or `None` when the query
/// is ineligible or the chosen order is already the syntactic one.
///
/// Eligible queries have ≥ 3 tables, inner joins only, no bare `*` (whose
/// output column order is the join order), and pairwise-distinct effective
/// table names. The rewrite permutes FROM/JOIN, drops every ON, and merges
/// all ON conjuncts with the WHERE clause into a single conjunction — the
/// planner's conjunct classifier then re-places each predicate (pushdown,
/// hash keys, residual) for the new order, so results are unchanged.
pub(crate) fn reorder_select(state: &DbState, sel: &Select, params: &[Value]) -> Option<Select> {
    if sel.joins.len() < 2 {
        return None;
    }
    if sel.joins.iter().any(|j| j.left_outer) {
        return None;
    }
    if sel.items.iter().any(|i| matches!(i, SelectItem::Wildcard)) {
        return None;
    }
    let tables = from_tables(sel)?;
    for (i, a) in tables.iter().enumerate() {
        for b in &tables[..i] {
            if a.effective_name().eq_ignore_ascii_case(b.effective_name()) {
                return None;
            }
        }
    }
    let g = build_graph(state, sel, &tables, params)?;
    let order = greedy_order(&g);
    if order.iter().copied().eq(0..tables.len()) {
        return None;
    }

    let mut merged: Option<Expr> = None;
    let mut push = |e: &Expr| {
        merged = Some(match merged.take() {
            Some(acc) => Expr::binary(BinOp::And, acc, e.clone()),
            None => e.clone(),
        });
    };
    for join in &sel.joins {
        if let Some(on) = &join.on {
            let mut conjs = Vec::new();
            flatten_and(on, &mut conjs);
            for c in conjs {
                push(c);
            }
        }
    }
    if let Some(w) = &sel.where_clause {
        let mut conjs = Vec::new();
        flatten_and(w, &mut conjs);
        for c in conjs {
            push(c);
        }
    }

    let mut out = sel.clone();
    out.from = Some(tables[order[0]].clone());
    out.joins = order[1..]
        .iter()
        .map(|&k| Join {
            table: tables[k].clone(),
            on: None,
            left_outer: false,
        })
        .collect();
    out.where_clause = merged;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::db::Database;
    use crate::parser::parse;

    fn sel(sql: &str) -> Select {
        match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    /// Three tables sized so the syntactic order is maximally wrong:
    /// `big` (1000 rows, 10 distinct k), `mid` (1000 unique ids), `small`
    /// (10 rows referencing mid ids).
    fn join_db() -> Database {
        let db = Database::new();
        db.run_script(
            "CREATE TABLE big (id INTEGER PRIMARY KEY, k INTEGER);
             CREATE TABLE mid (id INTEGER PRIMARY KEY, k INTEGER);
             CREATE TABLE small (id INTEGER PRIMARY KEY, mid_id INTEGER);",
        )
        .unwrap();
        let mut conn = db.connect();
        conn.execute("BEGIN").unwrap();
        for i in 0..1000 {
            conn.execute_with_params(
                "INSERT INTO big VALUES (?, ?)",
                &[Value::Int(i), Value::Int(i % 10)],
            )
            .unwrap();
            conn.execute_with_params(
                "INSERT INTO mid VALUES (?, ?)",
                &[Value::Int(i), Value::Int(i % 10)],
            )
            .unwrap();
        }
        for i in 0..10 {
            conn.execute_with_params(
                "INSERT INTO small VALUES (?, ?)",
                &[Value::Int(i), Value::Int(i * 97)],
            )
            .unwrap();
        }
        conn.execute("COMMIT").unwrap();
        db
    }

    #[test]
    fn reorder_starts_from_smallest_table() {
        let db = join_db();
        let snapshot = db.pin();
        let s = sel("SELECT big.id FROM big \
             JOIN mid ON big.k = mid.k \
             JOIN small ON small.mid_id = mid.id");
        let reordered = reorder_select(&snapshot, &s, &[]).expect("should reorder");
        assert_eq!(reordered.from.as_ref().unwrap().name, "small");
        // All ONs merged into WHERE; joins carry no ON of their own.
        assert!(reordered.joins.iter().all(|j| j.on.is_none()));
        assert!(reordered.where_clause.is_some());
    }

    #[test]
    fn identity_order_returns_none() {
        let db = join_db();
        let snapshot = db.pin();
        let s = sel("SELECT small.id FROM small \
             JOIN mid ON small.mid_id = mid.id \
             JOIN big ON mid.k = big.k");
        assert!(reorder_select(&snapshot, &s, &[]).is_none());
    }

    #[test]
    fn outer_joins_and_bare_star_are_ineligible() {
        let db = join_db();
        let snapshot = db.pin();
        let outer = sel("SELECT big.id FROM big JOIN mid ON big.k = mid.k \
             LEFT JOIN small ON small.mid_id = mid.id");
        assert!(reorder_select(&snapshot, &outer, &[]).is_none());
        let star = sel("SELECT * FROM big JOIN mid ON big.k = mid.k \
             JOIN small ON small.mid_id = mid.id");
        assert!(reorder_select(&snapshot, &star, &[]).is_none());
    }

    #[test]
    fn estimate_steps_shrink_with_selective_predicates() {
        let db = join_db();
        let snapshot = db.pin();
        let s = sel("SELECT big.id FROM big JOIN mid ON big.id = mid.id WHERE big.id = 7");
        let steps = estimate_steps(&snapshot, &s, &[]).unwrap();
        assert_eq!(steps.len(), 2);
        // big.id is unique: the filtered base estimate is ~1 row.
        assert!(steps[0] <= 2.0, "base estimate {} too high", steps[0]);
    }

    #[test]
    fn probe_not_worthwhile_for_wide_range() {
        let db = join_db();
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
