//! SELECT execution: scan → filter → fold or sort → offset/limit → project.
//!
//! A SELECT reads one table or none. Execution follows the plan produced by
//! `plan::plan_select`: the scan reads its table by the `AccessPath` the plan
//! stored for it (an index probe for equality, range, `IN` or
//! `LIKE 'prefix%'`, a full scan, or nothing) and keeps the rows passing the
//! WHERE conjuncts that name a column; the residual conjuncts run next. A
//! query whose SELECT list or ORDER BY holds an aggregate then folds the
//! rows into one (`COUNT(*)`, `SUM`); any other sorts them, keeping a
//! bounded heap under `ORDER BY … LIMIT k`. OFFSET and LIMIT cut the
//! sorted rows, and only the rows that survive are projected. Rows are
//! threaded as [`RowRef`]s borrowed from the heap's records, so a scan
//! clones nothing. Every candidate row is still checked against the
//! conjuncts that selected it, so plan choice can only change performance,
//! never results — a property the equivalence suite in
//! `tests/planner_equivalence.rs` exercises. UPDATE finds its target rows
//! through the same scan (`scan_where`).
//!
//! Each step has one implementation: one filter loop serves the scan and the
//! residual WHERE, and one comparator sorts ORDER BY. The walkers here
//! (aggregate collection, constant folding) recurse through
//! [`Expr::try_for_each_child`] and keep only their own stopping rule.

use crate::analyze::{self, OpId};
use crate::ast::{AggFunc, Expr, OrderKey, Select, SelectItem, SortDir};
use crate::error::{SqlCode, SqlError, SqlResult};
use crate::eval::{
    eval, eval_ref, eval_truth, overflow, AggSource, Bindings, Evaluated, NoAggregates,
};
use crate::index::Index;
use crate::plan::{self, AccessPath, Keys, PlanOptions, ScanPlan, SelectPlan};
use crate::state::DbState;
use crate::storage::{RowId, RowRef};
use crate::types::{Value, ValueRef};
use dbgw_obs::RequestCtx;
use std::borrow::Cow;
use std::cmp::Ordering;

/// A source row: borrowed straight from a heap ([`RowRef::EMPTY`] for a
/// table-less SELECT or the one row a fold leaves).
type SrcRow<'a> = RowRef<'a>;

/// An output row.
type Row = Vec<Value>;

/// Cooperative-cancellation stride: the scan, fold and projection loops poll
/// [`RequestCtx::check`] every this many rows, so a runaway query notices its
/// deadline within a bounded amount of work while the per-row overhead stays
/// one branch on an induction variable.
const CANCEL_STRIDE: usize = 128;

/// Map a tripped request context to the SQLCODE −952 error the `%SQL_MESSAGE`
/// machinery understands.
fn check_cancel(ctx: &RequestCtx) -> SqlResult<()> {
    ctx.check().map_err(SqlError::cancelled)
}

/// A query result: column labels plus rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// Output column labels.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Execute a SELECT against the state. `ctx` is the owning request's context;
/// the executor polls it cooperatively (library callers with no request pass
/// [`RequestCtx::unbounded`]).
pub fn run_select(
    state: &DbState,
    sel: &Select,
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<ResultSet> {
    run_select_with_options(state, sel, params, ctx, &PlanOptions::default())
}

/// Like [`run_select`], but with explicit [`PlanOptions`] — benches and the
/// plan-equivalence property suite use this to run the same query under the
/// optimized and baseline executors and compare results.
pub fn run_select_with_options(
    state: &DbState,
    sel: &Select,
    params: &[Value],
    ctx: &RequestCtx,
    opts: &PlanOptions,
) -> SqlResult<ResultSet> {
    check_cancel(ctx)?;
    // One EXPLAIN ANALYZE block.
    let _analyze_block = analyze::enter_block();
    let bindings = scope(state, sel)?;
    let mut sel = sel.clone();
    // 1. Bind: the SELECT list and ORDER BY resolve their columns against
    // the FROM scope here, once — unknown columns error even when the table
    // is empty (DB2 validated names at PREPARE) and no row loop looks a name
    // up again. WHERE conjuncts bind where the plan runs them.
    for item in &mut sel.items {
        if let SelectItem::Expr(expr) = item {
            bindings.bind(expr)?;
        }
    }
    for key in &mut sel.order_by {
        let bound = bindings.bind(&mut key.expr);
        // A bare name that is no source column may be an output label.
        if !matches!(&key.expr, Expr::Column(c) if c.table.is_none()) {
            bound?;
        }
    }
    let (sel, bindings) = (&sel, &bindings);
    let out = expand_items(sel, bindings);

    // 2. Plan, then scan accordingly.
    let sel_plan = plan::plan_select(state, sel, bindings, params, opts);
    if sel_plan.aggregate {
        check_aggregated(sel, &out)?;
    }
    if dbgw_obs::trace::trace_active() {
        dbgw_obs::trace::note("plan", plan_note(sel, &sel_plan));
    }
    let residual = bind_all(&sel_plan.residual, bindings)?;
    let rows = execute_source(state, sel, &sel_plan, bindings, params, ctx)?;

    // 3. Residual WHERE conjuncts (those the scan did not run).
    let filter_in = rows.len() as u64;
    let filter_t0 = analyze::start();
    let rows = filter_rows(rows, &residual, params, ctx)?;
    if sel.where_clause.is_some() {
        analyze::record(OpId::WhereFilter, filter_t0, filter_in, rows.len() as u64);
    }

    // 4. Fold into one row, or sort; then cut and project.
    let folded;
    let (rows, aggs): (_, &dyn AggSource) = if sel_plan.aggregate {
        folded = fold(sel, &rows, params, ctx)?;
        (vec![RowRef::EMPTY], &folded)
    } else {
        (rows, &NoAggregates)
    };
    finish(sel, out, rows, params, ctx, sel_plan.topk, aggs)
}

/// True when every conjunct evaluates to TRUE for `row` (3-valued logic:
/// FALSE and UNKNOWN both reject, exactly as the AND of the conjuncts would).
fn passes_all(conjuncts: &[Expr], row: RowRef<'_>, params: &[Value]) -> SqlResult<bool> {
    for conj in conjuncts {
        if !eval_truth(conj, row, params, &NoAggregates)?.passes() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The plan's conjuncts for one stage, bound to the statement's scope.
fn bind_all(conjuncts: &[&Expr], scope: &Bindings) -> SqlResult<Vec<Expr>> {
    conjuncts.iter().map(|c| scope.bound(c)).collect()
}

// ---------------------------------------------------------------------------
// Source construction (FROM), with access-path selection.
// ---------------------------------------------------------------------------

/// Column names of a table, in ordinal order.
fn column_names(state: &DbState, table: &str) -> SqlResult<Vec<String>> {
    Ok(state
        .table(table)?
        .schema
        .columns
        .iter()
        .map(|c| c.name.clone())
        .collect())
}

/// The FROM-clause scope — an unknown table errors here. The one place a
/// SELECT reads its table's column list, behind both execution and EXPLAIN.
fn scope(state: &DbState, sel: &Select) -> SqlResult<Bindings> {
    match &sel.from {
        Some(t) => Ok(Bindings::single(t, column_names(state, t)?)),
        None => Ok(Bindings::empty()),
    }
}

/// The row ids `keys` select from `index`, in index order (an IN list's in
/// row-id order).
fn probe<'i>(index: &'i Index, keys: &Keys) -> Cow<'i, [RowId]> {
    match keys {
        Keys::Eq(v) => Cow::Borrowed(index.lookup_ref(v)),
        Keys::Range(lo, hi) => Cow::Owned(index.range(lo.as_ref(), hi.as_ref())),
        Keys::Prefix(p) => Cow::Owned(index.prefix_scan(p)),
        Keys::In(values) => {
            let mut ids: Vec<RowId> = (values.iter())
                .flat_map(|v| index.lookup_ref(v).iter().copied())
                .collect();
            ids.sort_unstable();
            ids.dedup();
            Cow::Owned(ids)
        }
    }
}

/// Scan one table by its planned access path, keeping only the rows that
/// pass every scan filter (bound to `local`, the table's scope).
/// Returns borrowed rows with their ids — nothing is cloned here.
fn scan_table<'a>(
    state: &'a DbState,
    table: &str,
    local: &Bindings,
    scan: &ScanPlan<'_>,
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<Vec<(RowId, RowRef<'a>)>> {
    let analyze_t0 = analyze::start();
    let heap = &state.table(table)?.heap;
    let filters = bind_all(&scan.filters, local)?;
    let (out, scanned) = match &scan.access {
        AccessPath::FullScan { .. } => keep_passing(heap.iter(), &filters, params, ctx)?,
        AccessPath::Empty { .. } => (Vec::new(), 0),
        AccessPath::Probe { index, keys, .. } => {
            let candidates = probe(index, keys);
            let rows = candidates
                .iter()
                .filter_map(|&id| Some((id, heap.get(id)?)));
            keep_passing(rows, &filters, params, ctx)?
        }
    };
    plan::record(|s| s.rows_scanned += scanned);
    dbgw_obs::metrics().rows_scanned.add(scanned);
    analyze::record(OpId::Base, analyze_t0, scanned, out.len() as u64);
    Ok(out)
}

/// A row the filter loop tests: a scanned heap row with its id, or a source
/// row.
trait Candidate {
    fn values(&self) -> RowRef<'_>;
}

impl Candidate for (RowId, RowRef<'_>) {
    fn values(&self) -> RowRef<'_> {
        self.1
    }
}

impl Candidate for SrcRow<'_> {
    fn values(&self) -> RowRef<'_> {
        *self
    }
}

/// The `candidates` that pass every filter, and how many were read. The one
/// filter loop: the scan and the residual WHERE both run here.
fn keep_passing<T: Candidate>(
    candidates: impl Iterator<Item = T>,
    filters: &[Expr],
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<(Vec<T>, u64)> {
    let mut out = Vec::new();
    let mut scanned: u64 = 0;
    for candidate in candidates {
        if scanned.is_multiple_of(CANCEL_STRIDE as u64) {
            check_cancel(ctx)?;
        }
        scanned += 1;
        if passes_all(filters, candidate.values(), params)? {
            out.push(candidate);
        }
    }
    Ok((out, scanned))
}

/// `rows` less those failing a filter; untouched when there are no filters.
fn filter_rows<'a>(
    rows: Vec<SrcRow<'a>>,
    filters: &[Expr],
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<Vec<SrcRow<'a>>> {
    if filters.is_empty() {
        return Ok(rows);
    }
    Ok(keep_passing(rows.into_iter(), filters, params, ctx)?.0)
}

/// The single-table scan behind UPDATE: the rows of `table` that
/// pass `predicate`, found by the access path a
/// `SELECT * FROM table WHERE predicate` takes.
pub(crate) fn scan_where<'a>(
    state: &'a DbState,
    table: &str,
    predicate: Option<&Expr>,
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<Vec<(RowId, RowRef<'a>)>> {
    let local = Bindings::single(table, column_names(state, table)?);
    let mut filters = Vec::new();
    if let Some(p) = predicate {
        plan::flatten_and(p, &mut filters);
    }
    let scan = ScanPlan::new(state, table, filters, params, &PlanOptions::default());
    scan_table(state, table, &local, &scan, params, ctx)
}

/// The rows of `sel`'s table that pass its scan, read under `sel_plan`;
/// `scope` is the table's scope.
fn execute_source<'a>(
    state: &'a DbState,
    sel: &Select,
    sel_plan: &SelectPlan<'_>,
    scope: &Bindings,
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<Vec<SrcRow<'a>>> {
    let (Some(table), Some(scan)) = (&sel.from, &sel_plan.scan) else {
        // Table-less SELECT evaluates items once against an empty row.
        return Ok(vec![RowRef::EMPTY]);
    };
    let rows = scan_table(state, table, scope, scan, params, ctx)?;
    Ok(rows.into_iter().map(|(_, r)| r).collect())
}

/// One-line plan summary for `DBGW_TRACE=1` request traces.
fn plan_note(sel: &Select, sel_plan: &SelectPlan<'_>) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut filters = 0;
    if let (Some(table), Some(scan)) = (&sel.from, &sel_plan.scan) {
        parts.push(format!("scan {table}: {}", scan.access));
        filters = scan.filters.len();
    }
    parts.push(format!(
        "pushed={filters} residual={}",
        sel_plan.residual.len()
    ));
    if let Some(k) = sel_plan.topk {
        parts.push(format!("topk={k}"));
    }
    parts.join("; ")
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Constant-fold an expression with no column references.
pub(crate) fn const_value(expr: &Expr, params: &[Value]) -> Option<Value> {
    // Aggregates depend on the row set: they do not fold.
    fn has_column(e: &Expr) -> bool {
        matches!(e, Expr::Column(_) | Expr::Agg { .. }) || e.any_child(has_column)
    }
    if has_column(expr) {
        return None;
    }
    eval(expr, RowRef::EMPTY, params, &NoAggregates).ok()
}

// ---------------------------------------------------------------------------
// Output columns, the fold, and the tail.
// ---------------------------------------------------------------------------

/// One output column: a source column (`*`) or a computed expression.
enum OutCol {
    /// Direct tuple position (wildcards).
    Position(usize),
    /// Computed expression.
    Expr(Expr),
}

/// A SELECT's output columns: their labels, and how each is computed.
struct Output {
    labels: Vec<String>,
    cols: Vec<OutCol>,
}

/// The SELECT items as output columns.
fn expand_items(sel: &Select, bindings: &Bindings) -> Output {
    let mut labels = Vec::new();
    let mut cols = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                for (i, name) in bindings.columns().iter().enumerate() {
                    labels.push(name.clone());
                    cols.push(OutCol::Position(i));
                }
            }
            SelectItem::Expr(expr) => {
                labels.push(default_label(expr, labels.len()));
                cols.push(OutCol::Expr(expr.clone()));
            }
        }
    }
    Output { labels, cols }
}

/// DB2-style output column label: a column's name as written, an
/// aggregate's call, otherwise the column's position.
fn default_label(expr: &Expr, position: usize) -> String {
    match expr {
        Expr::Column(c) => c.column.clone(),
        Expr::Agg { func, arg: None } => format!("{}(*)", func.name()),
        Expr::Agg {
            func,
            arg: Some(arg),
        } => match arg.as_ref() {
            Expr::Column(c) => format!("{}({})", func.name(), c.column),
            _ => func.name().to_string(),
        },
        _ => (position + 1).to_string(),
    }
}

fn project(
    cols: &[OutCol],
    row: RowRef<'_>,
    params: &[Value],
    aggs: &dyn AggSource,
) -> SqlResult<Row> {
    let mut out = Vec::with_capacity(cols.len());
    for col in cols {
        out.push(match col {
            OutCol::Position(i) => row.get(*i).to_value(),
            OutCol::Expr(e) => eval(e, row, params, aggs)?,
        });
    }
    Ok(out)
}

/// DB2's −122, checked once per statement after binding: a query that
/// aggregates returns one row, so every column it outputs or sorts by must
/// sit inside an aggregate. Anything else would read an arbitrary row.
fn check_aggregated(sel: &Select, out: &Output) -> SqlResult<()> {
    /// The first column `e` reads outside an aggregate, as `Err(name)`.
    fn inside_aggregates(e: &Expr) -> Result<(), String> {
        match e {
            Expr::Agg { .. } => Ok(()),
            Expr::Column(c) => Err(c.to_string()),
            _ => e.try_for_each_child(inside_aggregates),
        }
    }
    let outside = |name: String| {
        SqlError::new(
            SqlCode::GROUPING,
            format!("column {name} is outside an aggregate in a query that aggregates"),
        )
    };
    for (label, col) in out.labels.iter().zip(&out.cols) {
        match col {
            OutCol::Position(_) => return Err(outside(label.clone())),
            OutCol::Expr(e) => inside_aggregates(e).map_err(outside)?,
        }
    }
    for key in &sel.order_by {
        if let SortKey::Expr(e) = sort_key(key, &out.labels)? {
            inside_aggregates(e).map_err(outside)?;
        }
    }
    Ok(())
}

/// The aggregates of a query that aggregates, folded over its rows.
struct Folded(Vec<(Expr, Value)>);

impl AggSource for Folded {
    fn agg_value(&self, expr: &Expr) -> Option<Value> {
        (self.0.iter())
            .find(|(e, _)| e == expr)
            .map(|(_, v)| v.clone())
    }
}

/// Fold `rows` into the value of every distinct aggregate call in the
/// SELECT list and ORDER BY: `COUNT(*)` counts them, `SUM` adds its
/// argument's non-NULL values (NULL over none), exactly over integers.
fn fold(
    sel: &Select,
    rows: &[SrcRow<'_>],
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<Folded> {
    fn collect(expr: &Expr, out: &mut Vec<Expr>) {
        match expr {
            Expr::Agg { .. } if !out.contains(expr) => out.push(expr.clone()),
            Expr::Agg { .. } => {}
            _ => expr.for_each_child(|e| collect(e, out)),
        }
    }
    let agg_t0 = analyze::start();
    let mut calls = Vec::new();
    sel.aggregate_exprs().for_each(|e| collect(e, &mut calls));
    let mut folded = Vec::with_capacity(calls.len());
    for call in calls {
        let value = match &call {
            Expr::Agg {
                func: AggFunc::Sum,
                arg: Some(arg),
            } => sum(arg, rows, params, ctx)?,
            _ => Value::Int(rows.len() as i64),
        };
        folded.push((call, value));
    }
    analyze::record(OpId::Aggregate, agg_t0, rows.len() as u64, 1);
    Ok(Folded(folded))
}

/// `SUM(arg)` over `rows`: NULL over no value, an integer while every
/// value is one (−802 when it leaves `i64`), a double once any is.
fn sum(arg: &Expr, rows: &[SrcRow<'_>], params: &[Value], ctx: &RequestCtx) -> SqlResult<Value> {
    let (mut int_sum, mut float_sum) = (Some(0i64), 0.0f64);
    let (mut any, mut all_int) = (false, true);
    for (i, row) in rows.iter().enumerate() {
        if i % CANCEL_STRIDE == 0 {
            check_cancel(ctx)?;
        }
        match eval_ref(arg, *row, params, &NoAggregates)?.view() {
            ValueRef::Null => continue,
            ValueRef::Int(v) => {
                int_sum = int_sum.and_then(|s| s.checked_add(v));
                float_sum += v as f64;
            }
            ValueRef::Double(v) => {
                all_int = false;
                float_sum += v;
            }
            other => {
                let msg = format!("SUM over non-numeric value {other}");
                return Err(SqlError::type_mismatch(msg));
            }
        }
        any = true;
    }
    Ok(match (any, all_int) {
        (false, _) => Value::Null,
        (true, true) => Value::Int(int_sum.ok_or_else(overflow)?),
        (true, false) => Value::Double(float_sum),
    })
}

/// The tail every SELECT ends in: sort `rows` by ORDER BY (top-k under a
/// bound), cut them by OFFSET and LIMIT, and project the rows that are
/// left. `aggs` answers the aggregates of a folded query, whose one row is
/// [`RowRef::EMPTY`].
fn finish(
    sel: &Select,
    out: Output,
    rows: Vec<SrcRow<'_>>,
    params: &[Value],
    ctx: &RequestCtx,
    topk: Option<usize>,
    aggs: &dyn AggSource,
) -> SqlResult<ResultSet> {
    // ORDER BY: compute sort keys eagerly for each row. With LIMIT k the
    // planner bounds the sort to the best `offset + limit` rows.
    let mut order: Vec<usize> = (0..rows.len()).collect();
    if !sel.order_by.is_empty() {
        let sort_in = rows.len() as u64;
        let sort_t0 = analyze::start();
        let sort_keys = (sel.order_by.iter())
            .map(|k| sort_key(k, &out.labels))
            .collect::<SqlResult<Vec<_>>>()?;
        // Keys borrow the source value they name; only computed keys are
        // owned.
        let keys: Vec<Vec<Evaluated<'_>>> = (rows.iter())
            .map(|src| {
                (sort_keys.iter())
                    .map(|key| match key {
                        SortKey::Output(pos) => match &out.cols[*pos] {
                            OutCol::Position(i) => Ok(Evaluated::Borrowed(src.get(*i))),
                            OutCol::Expr(e) => eval_ref(e, *src, params, aggs),
                        },
                        SortKey::Expr(e) => eval_ref(e, *src, params, aggs),
                    })
                    .collect::<SqlResult<Vec<_>>>()
            })
            .collect::<SqlResult<Vec<_>>>()?;
        order = sort_order(&keys, &sel.order_by, topk);
        analyze::record(OpId::Sort, sort_t0, sort_in, order.len() as u64);
    }

    let limited = sel.limit.is_some() || sel.offset.is_some();
    let limit_in = order.len() as u64;
    let limit_t0 = analyze::start();
    let kept = (order.into_iter())
        .skip(sel.offset.unwrap_or(0))
        .take(sel.limit.unwrap_or(usize::MAX));
    let mut projected = Vec::with_capacity(kept.size_hint().0.min(rows.len()));
    for (i, idx) in kept.enumerate() {
        if i % CANCEL_STRIDE == 0 {
            check_cancel(ctx)?;
        }
        projected.push(project(&out.cols, rows[idx], params, aggs)?);
    }
    if limited {
        analyze::record(OpId::Limit, limit_t0, limit_in, projected.len() as u64);
    }
    Ok(ResultSet {
        columns: out.labels,
        rows: projected,
    })
}

/// The row indices of `keys` (one key tuple per row) in `order_by` order,
/// ties broken by index, so the result is the stable sort. Under a top-k
/// bound only the first `k`, from a bounded heap in O(n log k): exactly the
/// full sort's prefix. The one sort comparator of the executor.
fn sort_order(
    keys: &[Vec<Evaluated<'_>>],
    order_by: &[OrderKey],
    topk: Option<usize>,
) -> Vec<usize> {
    let cmp = |a: usize, b: usize| -> Ordering {
        for ((x, y), key) in keys[a].iter().zip(&keys[b]).zip(order_by) {
            let ord = x.view().order_key(y.view());
            let ord = match key.dir {
                SortDir::Asc => ord,
                SortDir::Desc => ord.reverse(),
            };
            if !ord.is_eq() {
                return ord;
            }
        }
        a.cmp(&b)
    };
    match topk {
        Some(k) if k < keys.len() => plan::top_k_indices(keys.len(), k, &cmp),
        _ => {
            let mut order: Vec<usize> = (0..keys.len()).collect();
            order.sort_unstable_by(|&a, &b| cmp(a, b));
            order
        }
    }
}

/// Where an ORDER BY key's value comes from, decided once per statement.
enum SortKey<'k> {
    /// The output column at this position.
    Output(usize),
    /// An expression over the source row.
    Expr(&'k Expr),
}

/// Resolve `key` against the output `labels`: an integer is a position
/// (SQL-92 `ORDER BY 2`), and a bare name that labels an output column reads
/// that column, ahead of a source column of the same name, per SQL. A bare
/// name that is neither is unknown.
fn sort_key<'k>(key: &'k OrderKey, labels: &[String]) -> SqlResult<SortKey<'k>> {
    match &key.expr {
        Expr::Literal(Value::Int(n)) => match usize::try_from(*n) {
            Ok(pos) if (1..=labels.len()).contains(&pos) => Ok(SortKey::Output(pos - 1)),
            _ => Err(SqlError::syntax(format!(
                "ORDER BY position {n} is out of range"
            ))),
        },
        Expr::Column(c) if c.table.is_none() => {
            match labels
                .iter()
                .position(|l| l.eq_ignore_ascii_case(&c.column))
            {
                Some(pos) => Ok(SortKey::Output(pos)),
                None if c.slot.is_none() => Err(SqlError::no_such_column(&c.to_string())),
                None => Ok(SortKey::Expr(&key.expr)),
            }
        }
        expr => Ok(SortKey::Expr(expr)),
    }
}

// ---------------------------------------------------------------------------
// EXPLAIN.
// ---------------------------------------------------------------------------

/// Produce a plan description for a SELECT without running it.
pub fn explain_select(state: &DbState, sel: &Select, params: &[Value]) -> SqlResult<Vec<String>> {
    explain_lines(state, sel, params, None)
}

/// `EXPLAIN ANALYZE`: execute `sel` under an operator collector on `ctx`'s
/// clock, then render the plan with the observed actuals (rows in/out,
/// loops, wall time) appended to each operator's line, plus a trailing
/// `TOTAL:` line for the whole statement.
pub fn explain_analyze_select(
    state: &DbState,
    sel: &Select,
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<Vec<String>> {
    let opts = PlanOptions::default();
    let clock = std::sync::Arc::clone(ctx.clock());
    let t0 = clock.now_ns();
    let (result, actuals) = analyze::collect(std::sync::Arc::clone(&clock), || {
        run_select_with_options(state, sel, params, ctx, &opts)
    });
    let rs = result?;
    let total_ns = clock.now_ns().saturating_sub(t0);
    let mut lines = explain_lines(state, sel, params, Some(&actuals))?;
    lines.push(format!(
        "TOTAL: {} row{} returned, {:.3} ms",
        rs.len(),
        plural(rs.len()),
        total_ns as f64 / 1e6
    ));
    Ok(lines)
}

/// The plan of `sel` as it runs under the default [`PlanOptions`], one line
/// per operator, each annotated with its observed actuals when an ANALYZE
/// collection is being rendered and the operator ran.
fn explain_lines(
    state: &DbState,
    sel: &Select,
    params: &[Value],
    actuals: Option<&[(OpId, analyze::OpActuals)]>,
) -> SqlResult<Vec<String>> {
    let bindings = scope(state, sel)?;
    let sel_plan = plan::plan_select(state, sel, &bindings, params, &PlanOptions::default());
    let mut lines = Vec::new();
    let mut push = |mut line: String, op: OpId| {
        if let Some(a) = actuals.and_then(|acts| analyze::lookup(acts, op)) {
            line.push_str(&format!(
                " (actual rows={} in={} loops={} time={:.3}ms)",
                a.rows_out,
                a.rows_in,
                a.loops,
                a.time_ns as f64 / 1e6
            ));
        }
        lines.push(line);
    };
    match &sel_plan.scan {
        Some(scan) => push(scan.access.to_string(), OpId::Base),
        None => push("VALUES (table-less SELECT)".into(), OpId::Base),
    }
    if sel.where_clause.is_some() {
        push("FILTER <where>".into(), OpId::WhereFilter);
    }
    if sel_plan.aggregate {
        push("AGGREGATE".into(), OpId::Aggregate);
    }
    if !sel.order_by.is_empty() {
        let line = match sel_plan.topk {
            Some(k) => format!("TOP-K SORT ({} keys, k={k})", sel.order_by.len()),
            None => format!("SORT ({} keys)", sel.order_by.len()),
        };
        push(line, OpId::Sort);
    }
    if sel.limit.is_some() || sel.offset.is_some() {
        let limit = sel.limit.map_or("ALL".into(), |l| l.to_string());
        let offset = sel
            .offset
            .map(|o| format!(" OFFSET {o}"))
            .unwrap_or_default();
        push(format!("LIMIT {limit}{offset}"), OpId::Limit);
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ColumnDef;
    use crate::ast::Statement;
    use crate::error::SqlCode;
    use crate::index::Index;
    use crate::parser::parse;
    use crate::schema::TableSchema;
    use crate::state::TableData;
    use crate::storage::{Heap, Record};
    use crate::types::SqlType;
    use std::sync::Arc;

    fn shop_state() -> DbState {
        let mut st = DbState::default();
        let defs = [
            ColumnDef {
                name: "custid".into(),
                ty: SqlType::Integer,
                not_null: true,
                primary_key: false,
                unique: false,
            },
            ColumnDef {
                name: "product_name".into(),
                ty: SqlType::Varchar,
                not_null: false,
                primary_key: false,
                unique: false,
            },
            ColumnDef {
                name: "price".into(),
                ty: SqlType::Double,
                not_null: false,
                primary_key: false,
                unique: false,
            },
        ];
        let schema = TableSchema::from_defs("orders", &defs).unwrap();
        st.tables.insert(
            "orders".into(),
            Arc::new(TableData {
                schema,
                heap: Heap::new(),
                index_names: vec!["orders_cust".into()],
                version: 0,
            }),
        );
        st.indexes.insert(
            "orders_cust".into(),
            Arc::new(Index::new("orders_cust", "orders", 0, false)),
        );
        let data: &[(i64, &str, f64)] = &[
            (10100, "bikes", 120.0),
            (10100, "bike bells", 4.5),
            (10200, "skates", 45.0),
            (10100, "helmets", 30.0),
            (10300, "bikes", 119.0),
        ];
        for (c, p, pr) in data {
            let row = Record::new(&[Value::Int(*c), Value::Text((*p).into()), Value::Double(*pr)]);
            st.insert_row("orders", row.row()).unwrap();
        }
        st
    }

    fn q(state: &DbState, sql: &str) -> ResultSet {
        let Statement::Select(sel) = parse(sql).unwrap() else {
            panic!()
        };
        run_select(state, &sel, &[], &RequestCtx::unbounded()).unwrap()
    }

    #[test]
    fn cancelled_ctx_aborts_scan_with_sqlcode_952() {
        let st = shop_state();
        let Statement::Select(sel) = parse("SELECT * FROM orders").unwrap() else {
            panic!()
        };
        let ctx = RequestCtx::new(1, std::sync::Arc::new(dbgw_obs::StdClock::new()));
        ctx.cancel();
        let err = run_select(&st, &sel, &[], &ctx).unwrap_err();
        assert_eq!(err.code, SqlCode::CANCELLED);
        assert_eq!(err.code.0, -952);
        assert!(err.message.contains("cancelled"), "{}", err.message);
    }

    #[test]
    fn expired_deadline_aborts_scan_deterministically() {
        let st = shop_state();
        let Statement::Select(sel) = parse("SELECT * FROM orders WHERE custid > 0").unwrap() else {
            panic!()
        };
        let clock = std::sync::Arc::new(dbgw_obs::TestClock::new());
        let ctx = RequestCtx::new(1, clock.clone()).with_deadline_ms(10);
        assert!(run_select(&st, &sel, &[], &ctx).is_ok());
        clock.advance_millis(11);
        let err = run_select(&st, &sel, &[], &ctx).unwrap_err();
        assert_eq!(err.code, SqlCode::CANCELLED);
        assert!(err.message.contains("10 ms"), "{}", err.message);
    }

    #[test]
    fn paper_conditional_where_query() {
        // §3.1.3: WHERE custid = 10100 AND product_name LIKE 'bikes%'
        let st = shop_state();
        let r = q(
            &st,
            "SELECT product_name FROM orders WHERE custid = 10100 AND product_name LIKE 'bikes%'",
        );
        assert_eq!(r.rows, vec![vec![Value::Text("bikes".into())]]);
    }

    #[test]
    fn index_probe_equals_full_scan() {
        let st = shop_state();
        let with_index = q(
            &st,
            "SELECT product_name FROM orders WHERE custid = 10100 ORDER BY 1",
        );
        // Same query phrased so the planner cannot use the index.
        let no_index = q(
            &st,
            "SELECT product_name FROM orders WHERE custid + 0 = 10100 ORDER BY 1",
        );
        assert_eq!(with_index, no_index);
        assert_eq!(with_index.rows.len(), 3);
    }

    #[test]
    fn order_by_desc_and_positional() {
        let st = shop_state();
        let r = q(
            &st,
            "SELECT product_name, price FROM orders ORDER BY 2 DESC LIMIT 2",
        );
        assert_eq!(r.rows[0][0], Value::Text("bikes".into()));
        assert_eq!(r.rows[1][1], Value::Double(119.0));
    }

    #[test]
    fn wildcard_and_qualified_wildcard() {
        let st = shop_state();
        let r = q(&st, "SELECT * FROM orders LIMIT 1");
        assert_eq!(r.columns, vec!["custid", "product_name", "price"]);
        // `t.*` names the one table a SELECT reads; it is refused.
        assert_eq!(
            refusal("SELECT orders.* FROM orders LIMIT 1"),
            "table.* is not supported"
        );
    }

    #[test]
    fn global_aggregate_over_empty_set() {
        let st = shop_state();
        let r = q(
            &st,
            "SELECT COUNT(*), SUM(price) FROM orders WHERE custid = 999",
        );
        assert_eq!(r.rows, vec![vec![Value::Int(0), Value::Null]]);
    }

    /// The −104 message `sql` is refused with.
    fn refusal(sql: &str) -> String {
        let err = parse(sql).unwrap_err();
        assert_eq!(err.code, SqlCode::SYNTAX, "{sql}");
        err.message
    }

    #[test]
    fn group_by_with_having() {
        assert_eq!(
            refusal(
                "SELECT custid, COUNT(*) FROM orders \
                 GROUP BY custid HAVING COUNT(*) > 1 ORDER BY 1"
            ),
            "GROUP BY is not supported"
        );
    }

    #[test]
    fn count_distinct() {
        assert_eq!(
            refusal("SELECT COUNT(DISTINCT product_name) FROM orders"),
            "COUNT(DISTINCT …) is not supported"
        );
    }

    #[test]
    fn min_max_avg() {
        for f in ["MIN", "MAX", "AVG"] {
            let sql = format!("SELECT {f}(price) FROM orders WHERE custid = 10100");
            let want = format!("aggregate function {f} is not supported");
            assert_eq!(refusal(&sql), want);
        }
    }

    #[test]
    fn aggregates_fold_into_one_row_then_cut() {
        let st = shop_state();
        let r = q(
            &st,
            "SELECT COUNT(*), SUM(price) + 1 FROM orders WHERE custid = 10100 ORDER BY 2",
        );
        assert_eq!(r.columns, vec!["COUNT(*)", "2"]);
        assert_eq!(r.rows, vec![vec![Value::Int(3), Value::Double(155.5)]]);
        let r = q(&st, "SELECT COUNT(*) FROM orders LIMIT 1 OFFSET 1");
        assert!(r.rows.is_empty());
    }

    #[test]
    fn tableless_select() {
        let st = DbState::default();
        let r = q(&st, "SELECT 1 + 1, 'x'");
        assert_eq!(r.rows, vec![vec![Value::Int(2), Value::Text("x".into())]]);
    }

    #[test]
    fn like_prefix_uses_index_same_result() {
        let mut st = shop_state();
        // Index product_name too.
        st.indexes.insert(
            "orders_prod".into(),
            Arc::new(Index::new("orders_prod", "orders", 1, false)),
        );
        let names: Vec<Value> = st
            .table("orders")
            .unwrap()
            .heap
            .iter()
            .map(|(id, r)| (id, r.get(1).to_value()))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|(id, v)| {
                Arc::make_mut(st.indexes.get_mut("orders_prod").unwrap())
                    .insert(&v, id)
                    .unwrap();
                v
            })
            .collect();
        assert_eq!(names.len(), 5);
        Arc::make_mut(st.tables.get_mut("orders").unwrap())
            .index_names
            .push("orders_prod".into());
        let r = q(
            &st,
            "SELECT custid FROM orders WHERE product_name LIKE 'bike%' ORDER BY 1",
        );
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn where_with_unknown_filters_out() {
        let mut st = shop_state();
        let row = Record::new(&[Value::Int(10400), Value::Null, Value::Null]);
        st.insert_row("orders", row.row()).unwrap();
        // NULL product_name: LIKE is unknown, row filtered.
        let r = q(&st, "SELECT custid FROM orders WHERE product_name LIKE '%'");
        assert_eq!(r.rows.len(), 5);
    }

    #[test]
    fn offset_pagination() {
        let st = shop_state();
        let all = q(&st, "SELECT product_name FROM orders ORDER BY 1");
        let page2 = q(
            &st,
            "SELECT product_name FROM orders ORDER BY 1 LIMIT 2 OFFSET 2",
        );
        assert_eq!(page2.rows.as_slice(), &all.rows[2..4]);
    }

    #[test]
    fn error_on_unknown_column() {
        let st = shop_state();
        let Statement::Select(sel) = parse("SELECT bogus FROM orders").unwrap() else {
            panic!()
        };
        let err = run_select(&st, &sel, &[], &RequestCtx::unbounded()).unwrap_err();
        assert_eq!(err.code, crate::error::SqlCode::UNDEFINED_COLUMN);
    }

    fn q_opts(state: &DbState, sql: &str, opts: &PlanOptions) -> ResultSet {
        let Statement::Select(sel) = parse(sql).unwrap() else {
            panic!()
        };
        run_select_with_options(state, &sel, &[], &RequestCtx::unbounded(), opts).unwrap()
    }

    #[test]
    fn topk_execution_matches_full_sort() {
        let st = shop_state();
        for sql in [
            "SELECT product_name, price FROM orders ORDER BY price DESC LIMIT 2",
            "SELECT product_name FROM orders ORDER BY custid, 1 LIMIT 3 OFFSET 1",
            "SELECT product_name FROM orders ORDER BY 1 LIMIT 10", // k > n
        ] {
            let fast = q_opts(&st, sql, &PlanOptions::default());
            let slow = q_opts(&st, sql, &PlanOptions::baseline());
            assert_eq!(fast, slow, "top-k diverges for {sql}");
        }
    }

    #[test]
    fn topk_is_stable_on_duplicate_keys() {
        // Two orders share custid 10100 + equal sort key prefix; stable order
        // means heap-based top-k must tie-break by original position.
        let st = shop_state();
        let fast = q_opts(
            &st,
            "SELECT product_name FROM orders ORDER BY custid LIMIT 3",
            &PlanOptions::default(),
        );
        let slow = q_opts(
            &st,
            "SELECT product_name FROM orders ORDER BY custid LIMIT 3",
            &PlanOptions::baseline(),
        );
        assert_eq!(fast, slow);
    }
}
