//! SELECT execution: scan → join → filter → group/aggregate → project →
//! distinct → sort → limit.
//!
//! Execution follows the plan produced by [`crate::plan::plan_select`]:
//! WHERE/ON conjuncts are pushed to the scans that can evaluate them, each
//! scan tries an index probe over its own conjuncts (equality, range, `IN`,
//! `LIKE 'prefix%'` — on the base of a join as well as its sides), equi-joins
//! run as hash joins with a nested-loop fallback for everything else, and
//! `ORDER BY … LIMIT k` keeps a bounded heap instead of sorting. Intermediate
//! rows are threaded as borrowed [`Cow`] slices so a scan clones nothing and
//! only rows surviving a join are materialized. Every candidate row is still
//! checked against the conjuncts that selected it, so plan choice can only
//! change performance, never results — a property the equivalence suite in
//! `tests/planner_equivalence.rs` exercises.

use crate::analyze::{self, OpId};
use crate::ast::{
    AggFunc, BinOp, ColumnRef, Expr, OrderKey, Select, SelectItem, SetOp, SortDir, WindowFunc,
};
use crate::error::{SqlError, SqlResult};
use crate::eval::{eval, eval_ref, eval_truth, AggSource, Bindings, NoAggregates};
use crate::like::{is_exact, literal_prefix};
use crate::plan::{self, JoinPlan, PlanOptions, SelectPlan};
use crate::state::DbState;
use crate::storage::Row;
use crate::types::Value;
use dbgw_obs::RequestCtx;
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Bound;

/// A partially-joined tuple: borrowed straight from a heap until a join (or
/// NULL padding) forces an owned copy.
type SrcRow<'a> = Cow<'a, [Value]>;

/// Cooperative-cancellation stride: the scan, join, and grouping loops poll
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
    if !sel.set_ops.is_empty() {
        return run_compound(state, sel, params, ctx, opts);
    }
    run_single(state, sel, params, ctx, opts)
}

/// Execute a compound SELECT (UNION / EXCEPT / INTERSECT).
fn run_compound(
    state: &DbState,
    sel: &Select,
    params: &[Value],
    ctx: &RequestCtx,
    opts: &PlanOptions,
) -> SqlResult<ResultSet> {
    // Compound selects occupy a block of their own, pushing the branches to
    // collector depth ≥ 2: per-operator actuals are not attributed for set
    // operations (the branch operator ids would collide).
    let _analyze_block = analyze::enter_block();
    // The root's ORDER BY / LIMIT were hoisted by the parser to apply to the
    // combined result; run the root branch without them.
    let mut first = sel.clone();
    first.set_ops = Vec::new();
    first.order_by = Vec::new();
    first.limit = None;
    first.offset = None;
    let base = run_single(state, &first, params, ctx, opts)?;
    let width = base.columns.len();
    let mut rows = base.rows;
    for (op, branch) in &sel.set_ops {
        check_cancel(ctx)?;
        let rhs = run_select_with_options(state, branch, params, ctx, opts)?;
        if rhs.columns.len() != width {
            return Err(SqlError::syntax(format!(
                "set operation branches have {width} and {} columns",
                rhs.columns.len()
            )));
        }
        match op {
            SetOp::Union { all: true } => rows.extend(rhs.rows),
            SetOp::Union { all: false } => {
                rows.extend(rhs.rows);
                dedup_rows(&mut rows);
            }
            SetOp::Except { all: false } => {
                dedup_rows(&mut rows);
                rows.retain(|r| !rhs.rows.contains(r));
            }
            SetOp::Except { all: true } => {
                // Bag difference: each right row cancels at most one left copy,
                // leaving max(l - r, 0) copies of each row.
                let mut remaining = rhs.rows;
                rows.retain(|r| match remaining.iter().position(|x| x == r) {
                    Some(i) => {
                        remaining.swap_remove(i);
                        false
                    }
                    None => true,
                });
            }
            SetOp::Intersect { all: false } => {
                dedup_rows(&mut rows);
                rows.retain(|r| rhs.rows.contains(r));
            }
            SetOp::Intersect { all: true } => {
                // Bag intersection: min(l, r) copies of each row.
                let mut remaining = rhs.rows;
                rows.retain(|r| match remaining.iter().position(|x| x == r) {
                    Some(i) => {
                        remaining.swap_remove(i);
                        true
                    }
                    None => false,
                });
            }
        }
    }
    // Hoisted ORDER BY: positional or output-column keys only — there is no
    // single source row to evaluate arbitrary expressions against.
    if !sel.order_by.is_empty() {
        let key_positions: Vec<(usize, SortDir)> = sel
            .order_by
            .iter()
            .map(|k| match &k.expr {
                Expr::Literal(Value::Int(n)) if *n >= 1 && (*n as usize) <= width => {
                    Ok(((*n as usize) - 1, k.dir))
                }
                Expr::Column(c) if c.table.is_none() => base
                    .columns
                    .iter()
                    .position(|l| l.eq_ignore_ascii_case(&c.column))
                    .map(|p| (p, k.dir))
                    .ok_or_else(|| SqlError::no_such_column(&c.column)),
                _ => Err(SqlError::syntax(
                    "ORDER BY on a set operation must use output column names or positions",
                )),
            })
            .collect::<SqlResult<_>>()?;
        rows.sort_by(|a, b| {
            for &(pos, dir) in &key_positions {
                let ord = a[pos].order_key(&b[pos]);
                let ord = match dir {
                    SortDir::Asc => ord,
                    SortDir::Desc => ord.reverse(),
                };
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    let offset = sel.offset.unwrap_or(0);
    let rows: Vec<Row> = rows
        .into_iter()
        .skip(offset)
        .take(sel.limit.unwrap_or(usize::MAX))
        .collect();
    Ok(ResultSet {
        columns: base.columns,
        rows,
    })
}

fn dedup_rows(rows: &mut Vec<Row>) {
    let mut seen: Vec<Row> = Vec::with_capacity(rows.len());
    rows.retain(|r| {
        if seen.contains(r) {
            false
        } else {
            seen.push(r.clone());
            true
        }
    });
}

/// The one prepare step behind both execution and EXPLAIN, so the join order
/// EXPLAIN prints is the order that runs: cost-based join reordering on the
/// original AST (the SELECT comes back owned when the order changed), then
/// the FROM-clause scope (unknown tables error here). Both callers hand the
/// pair to [`plan::plan_select`].
fn prepare<'a>(
    state: &DbState,
    sel: &'a Select,
    params: &[Value],
    opts: &PlanOptions,
) -> SqlResult<(Cow<'a, Select>, Bindings)> {
    let reordered = if opts.reorder {
        crate::cost::reorder_select(state, sel, params)
    } else {
        None
    };
    let sel = reordered.map_or(Cow::Borrowed(sel), Cow::Owned);
    let bindings = full_bindings(state, &sel)?;
    Ok((sel, bindings))
}

fn run_single(
    state: &DbState,
    sel: &Select,
    params: &[Value],
    ctx: &RequestCtx,
    opts: &PlanOptions,
) -> SqlResult<ResultSet> {
    check_cancel(ctx)?;
    // One EXPLAIN ANALYZE block; subqueries re-entering run_single nest to
    // depth ≥ 2 and are excluded from the outer block's actuals.
    let _analyze_block = analyze::enter_block();
    let (mut sel, bindings) = prepare(state, sel, params, opts)?;
    if matches!(sel, Cow::Owned(_)) {
        dbgw_obs::metrics().join_reorders.inc();
    }
    // Pre-execute any (uncorrelated) subqueries, replacing them with literal
    // lists/values, so the scalar evaluator never needs database access. The
    // rewrite leaves FROM and JOIN tables alone, so the scope still holds.
    if select_has_subqueries(&sel) {
        sel = Cow::Owned(rewrite_select_subqueries(state, &sel, params, ctx)?);
    }
    // 1. Bind: the SELECT list, GROUP BY, HAVING and ORDER BY resolve their
    // columns against the FROM scope here, once — unknown columns error even
    // when the table is empty (DB2 validated names at PREPARE) and no row
    // loop looks a name up again. WHERE and ON conjuncts bind where the plan
    // runs them, in that stage's scope.
    let mut sel = sel.into_owned();
    for item in &mut sel.items {
        if let SelectItem::Expr { expr, .. } = item {
            bindings.bind(expr)?;
        }
    }
    for e in sel.group_by.iter_mut().chain(&mut sel.having) {
        bindings.bind(e)?;
    }
    for key in &mut sel.order_by {
        let bound = bindings.bind(&mut key.expr);
        // A bare name that is no source column may be an output alias.
        if !matches!(&key.expr, Expr::Column(c) if c.table.is_none()) {
            bound?;
        }
    }
    let (sel, bindings) = (&sel, &bindings);

    // 2. Plan, then scan + join accordingly.
    let sel_plan = plan::plan_select(sel, bindings, opts);
    if dbgw_obs::trace::trace_active() {
        dbgw_obs::trace::note("plan", plan_note(state, sel, &sel_plan, params, opts));
    }
    if !sel.joins.is_empty() && sel_plan.pushed_where > 0 {
        dbgw_obs::metrics().pushdown_applied.inc();
        plan::record(|s| s.pushed_conjuncts += sel_plan.pushed_where as u64);
    }
    let residual = bind_all(&sel_plan.residual, bindings)?;
    let mut rows = execute_source(state, sel, &sel_plan, params, ctx, opts)?;

    // 3. Residual WHERE conjuncts (everything the planner did not push).
    let filter_in = rows.len() as u64;
    let filter_t0 = analyze::start();
    if !residual.is_empty() {
        let mut kept = Vec::with_capacity(rows.len());
        for (i, row) in rows.into_iter().enumerate() {
            if i % CANCEL_STRIDE == 0 {
                check_cancel(ctx)?;
            }
            if passes_all(&residual, &row, params)? {
                kept.push(row);
            }
        }
        rows = kept;
    }
    if sel.where_clause.is_some() {
        analyze::record(OpId::WhereFilter, filter_t0, filter_in, rows.len() as u64);
    }

    let grouped = !sel.group_by.is_empty()
        || sel.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        })
        || sel.having.as_ref().is_some_and(Expr::contains_aggregate)
        || sel.order_by.iter().any(|k| k.expr.contains_aggregate());

    if grouped {
        run_grouped(sel, bindings, rows, params, ctx, sel_plan.topk)
    } else {
        run_plain(sel, bindings, rows, params, ctx, sel_plan.topk)
    }
}

/// True when every conjunct evaluates to TRUE for `row` (3-valued logic:
/// FALSE and UNKNOWN both reject, exactly as the AND of the conjuncts would).
fn passes_all(conjuncts: &[Expr], row: &[Value], params: &[Value]) -> SqlResult<bool> {
    for conj in conjuncts {
        if !eval_truth(conj, row, params, &NoAggregates)?.passes() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The plan's conjuncts for one stage, bound to that stage's scope.
fn bind_all(conjuncts: &[&Expr], scope: &Bindings) -> SqlResult<Vec<Expr>> {
    conjuncts.iter().map(|c| scope.bound(c)).collect()
}

// ---------------------------------------------------------------------------
// Source construction (FROM + JOIN), with access-path selection.
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

/// The full FROM-clause scope: base table plus every join, in order.
fn full_bindings(state: &DbState, sel: &Select) -> SqlResult<Bindings> {
    let Some(base) = &sel.from else {
        return Ok(Bindings::empty());
    };
    let mut bindings = Bindings::single(base.effective_name(), column_names(state, &base.name)?);
    for join in &sel.joins {
        bindings.push_table(
            join.table.effective_name(),
            column_names(state, &join.table.name)?,
        );
    }
    Ok(bindings)
}

/// Scan one table: try an index probe over the pushed conjuncts, fall back
/// to a heap walk, and keep only rows passing every conjunct. Returns
/// borrowed rows — nothing is cloned here.
#[allow(clippy::too_many_arguments)]
fn scan_table<'a>(
    state: &'a DbState,
    effective: &str,
    table_name: &str,
    filters: &[&Expr],
    params: &[Value],
    ctx: &RequestCtx,
    opts: &PlanOptions,
    aop: OpId,
) -> SqlResult<Vec<&'a Row>> {
    let analyze_t0 = analyze::start();
    let table = state.table(table_name)?;
    let local = Bindings::single(effective, column_names(state, table_name)?);
    let filters = bind_all(filters, &local)?;
    // A probe is only attempted for conjuncts the cost model estimates as
    // selective; a predicate keeping most of the table scans faster flat.
    let probed = if opts.index_paths {
        filters.iter().find_map(|conj| {
            if !crate::cost::probe_worthwhile(state, effective, table_name, conj, params) {
                return None;
            }
            probe_conjunct(state, effective, table_name, &local, conj, params)
        })
    } else {
        None
    };
    let mut out = Vec::new();
    let mut scanned: u64 = 0;
    match probed {
        Some(ids) => {
            for (i, row) in ids.iter().filter_map(|id| table.heap.get(*id)).enumerate() {
                if i % CANCEL_STRIDE == 0 {
                    check_cancel(ctx)?;
                }
                scanned += 1;
                if passes_all(&filters, row, params)? {
                    out.push(row);
                }
            }
        }
        None => {
            for (i, (_, row)) in table.heap.iter().enumerate() {
                if i % CANCEL_STRIDE == 0 {
                    check_cancel(ctx)?;
                }
                scanned += 1;
                if passes_all(&filters, row, params)? {
                    out.push(row);
                }
            }
        }
    }
    plan::record(|s| s.rows_scanned += scanned);
    dbgw_obs::metrics().rows_scanned.add(scanned);
    analyze::record(aop, analyze_t0, scanned, out.len() as u64);
    Ok(out)
}

/// Materialize the FROM + JOIN pipeline under `sel_plan`.
fn execute_source<'a>(
    state: &'a DbState,
    sel: &Select,
    sel_plan: &SelectPlan<'_>,
    params: &[Value],
    ctx: &RequestCtx,
    opts: &PlanOptions,
) -> SqlResult<Vec<SrcRow<'a>>> {
    let Some(base) = &sel.from else {
        // Table-less SELECT evaluates items once against an empty row.
        return Ok(vec![Cow::Owned(Vec::new())]);
    };
    let mut rows: Vec<SrcRow<'a>> = scan_table(
        state,
        base.effective_name(),
        &base.name,
        &sel_plan.base.filters,
        params,
        ctx,
        opts,
        OpId::Base,
    )?
    .into_iter()
    .map(|r| Cow::Borrowed(r.as_slice()))
    .collect();
    // Prefix scope: grows one table per join, so predicate evaluation at
    // join j sees exactly the tables bound so far (a reference to a
    // later table errors, as it did pre-planner).
    let mut prefix = Bindings::single(base.effective_name(), column_names(state, &base.name)?);
    let mut left_width = prefix.width();

    for (j, join) in sel.joins.iter().enumerate() {
        let jp = &sel_plan.joins[j];
        let right_width = column_names(state, &join.table.name)?.len();
        prefix.push_table(
            join.table.effective_name(),
            column_names(state, &join.table.name)?,
        );
        if rows.is_empty() {
            // A join (inner or LEFT OUTER) of an empty left side is empty;
            // skip the right scan (and its predicate evaluation) entirely.
            analyze::record(OpId::Join(j), analyze::start(), 0, 0);
            left_width += right_width;
            continue;
        }
        let right_local = Bindings::single(
            join.table.effective_name(),
            column_names(state, &join.table.name)?,
        );
        let right_rows = scan_table(
            state,
            join.table.effective_name(),
            &join.table.name,
            &jp.scan.filters,
            params,
            ctx,
            opts,
            OpId::JoinScan(j),
        )?;
        let join_in = rows.len() as u64;
        let join_t0 = analyze::start();
        rows = join_step(
            rows,
            right_rows,
            jp,
            join.left_outer,
            &prefix,
            &right_local,
            left_width,
            right_width,
            params,
            ctx,
        )?;
        analyze::record(OpId::Join(j), join_t0, join_in, rows.len() as u64);
        left_width += right_width;
    }
    Ok(rows)
}

/// One join step: pre-filter the left side (inner joins), pair rows by hash
/// or nested loop, then apply the post-join WHERE conjuncts.
#[allow(clippy::too_many_arguments)]
fn join_step<'a>(
    mut left: Vec<SrcRow<'a>>,
    right_rows: Vec<&'a Row>,
    jp: &JoinPlan<'_>,
    left_outer: bool,
    bindings: &Bindings,
    right_local: &Bindings,
    left_width: usize,
    right_width: usize,
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<Vec<SrcRow<'a>>> {
    let left_filters = bind_all(&jp.left_filters, bindings)?;
    let residual = bind_all(&jp.residual, bindings)?;
    let post_filters = bind_all(&jp.post_filters, bindings)?;
    let keys = (jp.keys.iter())
        .map(|(l, r)| Ok((bindings.bound(l)?, right_local.bound(r)?)))
        .collect::<SqlResult<Vec<_>>>()?;
    if !left_filters.is_empty() {
        let mut kept = Vec::with_capacity(left.len());
        for (i, row) in left.into_iter().enumerate() {
            if i % CANCEL_STRIDE == 0 {
                check_cancel(ctx)?;
            }
            if passes_all(&left_filters, &row, params)? {
                kept.push(row);
            }
        }
        left = kept;
    }
    let mut joined = if right_rows.is_empty() {
        if left_outer {
            left.into_iter()
                .map(|l| {
                    let mut c = l.into_owned();
                    c.extend(std::iter::repeat_n(Value::Null, right_width));
                    Cow::Owned(c)
                })
                .collect()
        } else {
            Vec::new()
        }
    } else if jp.use_hash {
        hash_join(
            left,
            &right_rows,
            &keys,
            &residual,
            left_outer,
            right_width,
            params,
            ctx,
        )?
    } else {
        nested_join(
            left,
            &right_rows,
            &residual,
            left_outer,
            left_width,
            right_width,
            params,
            ctx,
        )?
    };
    if !post_filters.is_empty() {
        let mut kept = Vec::with_capacity(joined.len());
        for (i, row) in joined.into_iter().enumerate() {
            if i % CANCEL_STRIDE == 0 {
                check_cancel(ctx)?;
            }
            if passes_all(&post_filters, &row, params)? {
                kept.push(row);
            }
        }
        joined = kept;
    }
    Ok(joined)
}

/// A join key value that can never compare TRUE under `=`: NULL (UNKNOWN)
/// and NaN (incomparable). Rows with such keys are skipped on both the build
/// and probe sides, matching 3-valued `=` exactly.
fn key_excluded(v: &Value) -> bool {
    v.is_null() || matches!(v, Value::Double(d) if d.is_nan())
}

/// Hash equi-join. Builds on the smaller side for inner joins (restoring
/// left-major output order afterwards); LEFT OUTER always builds on the
/// right so unmatched left rows pad in order. Output order is identical to
/// the nested-loop strategy: left rows in scan order, each row's matches in
/// right scan order.
#[allow(clippy::too_many_arguments)]
fn hash_join<'a>(
    left: Vec<SrcRow<'a>>,
    right_rows: &[&'a Row],
    keys: &[(Expr, Expr)],
    residual: &[Expr],
    left_outer: bool,
    right_width: usize,
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<Vec<SrcRow<'a>>> {
    dbgw_obs::metrics().join_hash.inc();
    plan::record(|s| s.hash_joins += 1);
    let nkeys = keys.len();
    // Right-side key tuples, evaluated once per right row against the bare
    // heap row (table-local bindings); None = contains NULL/NaN, never joins.
    let mut right_keys: Vec<Option<Vec<Value>>> = Vec::with_capacity(right_rows.len());
    for (i, row) in right_rows.iter().enumerate() {
        if i % CANCEL_STRIDE == 0 {
            check_cancel(ctx)?;
        }
        let mut key = Vec::with_capacity(nkeys);
        for (_, right_expr) in keys {
            let v = eval(right_expr, row, params, &NoAggregates)?;
            if key_excluded(&v) {
                key.clear();
                break;
            }
            key.push(v);
        }
        right_keys.push((key.len() == nkeys).then_some(key));
    }
    let left_key = |row: &[Value]| -> SqlResult<Option<Vec<Value>>> {
        let mut key = Vec::with_capacity(nkeys);
        for (left_expr, _) in keys {
            let v = eval(left_expr, row, params, &NoAggregates)?;
            if key_excluded(&v) {
                return Ok(None);
            }
            key.push(v);
        }
        Ok(Some(key))
    };

    let mut out: Vec<SrcRow<'a>> = Vec::new();
    if !left_outer && left.len() < right_rows.len() {
        // Build on the (smaller) left side, probe with right rows, then sort
        // the matches back into left-major order.
        let mut table: HashMap<Vec<Value>, Vec<u32>> = HashMap::with_capacity(left.len());
        for (li, lrow) in left.iter().enumerate() {
            if li % CANCEL_STRIDE == 0 {
                check_cancel(ctx)?;
            }
            if let Some(key) = left_key(lrow)? {
                table.entry(key).or_default().push(li as u32);
            }
        }
        let mut matches: Vec<(u32, u32, Row)> = Vec::new();
        let mut pairs = 0usize;
        for (ri, rrow) in right_rows.iter().enumerate() {
            if ri % CANCEL_STRIDE == 0 {
                check_cancel(ctx)?;
            }
            let Some(key) = &right_keys[ri] else { continue };
            let Some(lis) = table.get(key) else { continue };
            for &li in lis {
                pairs += 1;
                if pairs % CANCEL_STRIDE == 0 {
                    check_cancel(ctx)?;
                }
                let mut combined = left[li as usize].to_vec();
                combined.extend(rrow.iter().cloned());
                if passes_all(residual, &combined, params)? {
                    matches.push((li, ri as u32, combined));
                }
            }
        }
        matches.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        out = matches.into_iter().map(|(_, _, c)| Cow::Owned(c)).collect();
    } else {
        // Build on the right, probe left rows in order.
        let mut table: HashMap<Vec<Value>, Vec<u32>> = HashMap::with_capacity(right_rows.len());
        for (ri, key) in right_keys.into_iter().enumerate() {
            if let Some(key) = key {
                table.entry(key).or_default().push(ri as u32);
            }
        }
        let mut pairs = 0usize;
        for (li, lrow) in left.into_iter().enumerate() {
            if li % CANCEL_STRIDE == 0 {
                check_cancel(ctx)?;
            }
            let mut matched = false;
            if let Some(key) = left_key(&lrow)? {
                if let Some(ris) = table.get(&key) {
                    for &ri in ris {
                        pairs += 1;
                        if pairs % CANCEL_STRIDE == 0 {
                            check_cancel(ctx)?;
                        }
                        let mut combined = lrow.to_vec();
                        combined.extend(right_rows[ri as usize].iter().cloned());
                        if passes_all(residual, &combined, params)? {
                            matched = true;
                            out.push(Cow::Owned(combined));
                        }
                    }
                }
            }
            if left_outer && !matched {
                let mut combined = lrow.into_owned();
                combined.extend(std::iter::repeat_n(Value::Null, right_width));
                out.push(Cow::Owned(combined));
            }
        }
    }
    Ok(out)
}

/// Nested-loop join (the fallback for non-equi predicates and cross joins).
/// Pairs are assembled in a scratch buffer; only passing pairs are cloned
/// into the output.
#[allow(clippy::too_many_arguments)]
fn nested_join<'a>(
    left: Vec<SrcRow<'a>>,
    right_rows: &[&'a Row],
    residual: &[Expr],
    left_outer: bool,
    left_width: usize,
    right_width: usize,
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<Vec<SrcRow<'a>>> {
    dbgw_obs::metrics().join_nested.inc();
    plan::record(|s| s.nested_joins += 1);
    let mut out: Vec<SrcRow<'a>> = Vec::new();
    let mut buf: Vec<Value> = Vec::with_capacity(left_width + right_width);
    let mut pairs = 0usize;
    for lrow in left {
        let mut matched = false;
        buf.clear();
        buf.extend_from_slice(&lrow);
        for rrow in right_rows {
            pairs += 1;
            if pairs % CANCEL_STRIDE == 0 {
                check_cancel(ctx)?;
            }
            buf.truncate(left_width);
            buf.extend(rrow.iter().cloned());
            if passes_all(residual, &buf, params)? {
                matched = true;
                out.push(Cow::Owned(buf.clone()));
            }
        }
        if left_outer && !matched {
            let mut combined = lrow.into_owned();
            combined.extend(std::iter::repeat_n(Value::Null, right_width));
            out.push(Cow::Owned(combined));
        }
    }
    Ok(out)
}

/// One-line plan summary for `DBGW_TRACE=1` request traces.
fn plan_note(
    state: &DbState,
    sel: &Select,
    sel_plan: &SelectPlan<'_>,
    params: &[Value],
    opts: &PlanOptions,
) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(base) = &sel.from {
        let access = scan_description(
            state,
            base.effective_name(),
            &base.name,
            &sel_plan.base.filters,
            params,
            opts,
        );
        parts.push(format!(
            "scan {}={}",
            base.effective_name(),
            if access.is_some() { "index" } else { "full" }
        ));
    }
    for (j, join) in sel.joins.iter().enumerate() {
        let jp = &sel_plan.joins[j];
        let strategy = if jp.use_hash {
            format!("hash({} key{})", jp.keys.len(), plural(jp.keys.len()))
        } else {
            "nested".to_string()
        };
        let probe = scan_description(
            state,
            join.table.effective_name(),
            &join.table.name,
            &jp.scan.filters,
            params,
            opts,
        );
        parts.push(format!(
            "join {}={}{}",
            join.table.effective_name(),
            strategy,
            if probe.is_some() { "+index" } else { "" }
        ));
    }
    parts.push(format!(
        "pushed={} residual={}",
        sel_plan.pushed_where,
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

/// The index-probe description for a scan's conjuncts, if one applies
/// (shared by EXPLAIN and the trace plan note).
fn scan_description(
    state: &DbState,
    effective: &str,
    table_name: &str,
    filters: &[&Expr],
    params: &[Value],
    opts: &PlanOptions,
) -> Option<String> {
    if !opts.index_paths {
        return None;
    }
    let local = Bindings::single(effective, column_names(state, table_name).ok()?);
    describe_access_path(state, effective, table_name, &local, filters, params)
}

/// Constant-fold an expression with no column references.
fn const_value(expr: &Expr, params: &[Value]) -> Option<Value> {
    fn has_column(e: &Expr) -> bool {
        match e {
            Expr::Column(_) => true,
            Expr::Literal(_) | Expr::Param(_) => false,
            Expr::Neg(i) | Expr::Not(i) => has_column(i),
            Expr::Binary { lhs, rhs, .. } => has_column(lhs) || has_column(rhs),
            Expr::Like { expr, pattern, .. } => has_column(expr) || has_column(pattern),
            Expr::IsNull { expr, .. } => has_column(expr),
            Expr::InList { expr, list, .. } => has_column(expr) || list.iter().any(has_column),
            Expr::Between { expr, lo, hi, .. } => {
                has_column(expr) || has_column(lo) || has_column(hi)
            }
            Expr::Func { args, .. } => args.iter().any(has_column),
            Expr::Agg { .. } => true,
            // Unrewritten subqueries cannot be constant-folded here.
            Expr::Subquery(_) | Expr::InSelect { .. } | Expr::Exists { .. } => true,
            Expr::Case {
                operand,
                arms,
                otherwise,
            } => {
                operand.as_ref().is_some_and(|o| has_column(o))
                    || arms.iter().any(|(w, t)| has_column(w) || has_column(t))
                    || otherwise.as_ref().is_some_and(|e| has_column(e))
            }
            Expr::Cast { expr, .. } => has_column(expr),
            // Window values depend on the row set, never constant-foldable.
            Expr::Window(_) => true,
        }
    }
    if has_column(expr) {
        return None;
    }
    eval(expr, &[], params, &NoAggregates).ok()
}

fn column_of<'a>(expr: &'a Expr, effective: &str) -> Option<&'a ColumnRef> {
    match expr {
        Expr::Column(c)
            if c.table
                .as_ref()
                .is_none_or(|t| t.eq_ignore_ascii_case(effective)) =>
        {
            Some(c)
        }
        _ => None,
    }
}

fn probe_conjunct(
    state: &DbState,
    effective: &str,
    table_name: &str,
    bindings: &Bindings,
    conj: &Expr,
    params: &[Value],
) -> Option<Vec<crate::storage::RowId>> {
    let table = state.table(table_name).ok()?;
    let col_ordinal = |c: &ColumnRef| -> Option<usize> {
        // Ensure the reference resolves (catches ambiguity) and then map to
        // the table-local ordinal.
        bindings.resolve(c).ok()?;
        table.schema.column_index(&c.column)
    };
    match conj {
        Expr::Binary { op, lhs, rhs }
            if matches!(
                op,
                BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
            ) =>
        {
            // Normalize to "column op constant".
            let (col, val, op) = if let (Some(c), Some(v)) =
                (column_of(lhs, effective), const_value(rhs, params))
            {
                (c, v, *op)
            } else if let (Some(c), Some(v)) = (column_of(rhs, effective), const_value(lhs, params))
            {
                let flipped = match op {
                    BinOp::Lt => BinOp::Gt,
                    BinOp::Le => BinOp::Ge,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::Ge => BinOp::Le,
                    other => *other,
                };
                (c, v, flipped)
            } else {
                return None;
            };
            if val.is_null() {
                return Some(Vec::new()); // col op NULL selects nothing
            }
            let ordinal = col_ordinal(col)?;
            let index = state.index_on(table_name, ordinal)?;
            Some(match op {
                BinOp::Eq => index.lookup(&val),
                BinOp::Lt => index.range(Bound::Unbounded, Bound::Excluded(&val)),
                BinOp::Le => index.range(Bound::Unbounded, Bound::Included(&val)),
                BinOp::Gt => index.range(Bound::Excluded(&val), Bound::Unbounded),
                BinOp::Ge => index.range(Bound::Included(&val), Bound::Unbounded),
                _ => unreachable!(),
            })
        }
        Expr::Like {
            expr,
            pattern,
            escape,
            negated: false,
        } => {
            let col = column_of(expr, effective)?;
            let pat = match const_value(pattern, params)? {
                Value::Text(t) => t,
                _ => return None,
            };
            let ordinal = col_ordinal(col)?;
            let index = state.index_on(table_name, ordinal)?;
            if is_exact(&pat, *escape) {
                let literal = literal_prefix(&pat, *escape);
                return Some(index.lookup(&Value::Text(literal)));
            }
            let prefix = literal_prefix(&pat, *escape);
            if prefix.is_empty() {
                return None; // '%...' gives the index nothing to narrow
            }
            Some(index.prefix_scan(&prefix))
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } => {
            let col = column_of(expr, effective)?;
            let ordinal = col_ordinal(col)?;
            let index = state.index_on(table_name, ordinal)?;
            let mut ids = Vec::new();
            for item in list {
                let v = const_value(item, params)?;
                if !v.is_null() {
                    ids.extend(index.lookup(&v));
                }
            }
            ids.sort();
            ids.dedup();
            Some(ids)
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated: false,
        } => {
            let col = column_of(expr, effective)?;
            let lo = const_value(lo, params)?;
            let hi = const_value(hi, params)?;
            if lo.is_null() || hi.is_null() {
                return Some(Vec::new());
            }
            let ordinal = col_ordinal(col)?;
            let index = state.index_on(table_name, ordinal)?;
            Some(index.range(Bound::Included(&lo), Bound::Included(&hi)))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Plain (non-aggregate) pipeline.
// ---------------------------------------------------------------------------

/// Expand SELECT items into `(label, expr-or-position)` output columns.
enum OutCol {
    /// Direct tuple position (wildcards).
    Position(usize),
    /// Computed expression.
    Expr(Expr),
}

fn expand_items(sel: &Select, bindings: &Bindings) -> SqlResult<(Vec<String>, Vec<OutCol>)> {
    let mut labels = Vec::new();
    let mut cols = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                for (i, name) in bindings.all_columns().into_iter().enumerate() {
                    labels.push(name);
                    cols.push(OutCol::Position(i));
                }
            }
            SelectItem::QualifiedWildcard(table) => {
                let (start, end) = bindings
                    .table_span(table)
                    .ok_or_else(|| SqlError::no_such_table(table))?;
                let names = bindings.table_columns(table).expect("span implies columns");
                for (offset, name) in names.iter().enumerate() {
                    labels.push(name.clone());
                    cols.push(OutCol::Position(start + offset));
                    debug_assert!(start + offset < end);
                }
            }
            SelectItem::Expr { expr, alias } => {
                let label = match alias {
                    Some(a) => a.clone(),
                    None => default_label(expr, labels.len()),
                };
                labels.push(label);
                cols.push(OutCol::Expr(expr.clone()));
            }
        }
    }
    Ok((labels, cols))
}

/// DB2-style output column label for an unaliased expression.
fn default_label(expr: &Expr, position: usize) -> String {
    match expr {
        Expr::Column(c) => c.column.clone(),
        Expr::Agg {
            func, arg: None, ..
        } => format!("{}(*)", func.name()),
        Expr::Agg {
            func,
            arg: Some(arg),
            ..
        } => match arg.as_ref() {
            Expr::Column(c) => format!("{}({})", func.name(), c.column),
            _ => func.name().to_string(),
        },
        Expr::Func { name, .. } => name.clone(),
        Expr::Window(w) => w.func.name().to_string(),
        _ => (position + 1).to_string(),
    }
}

fn project(
    cols: &[OutCol],
    row: &[Value],
    params: &[Value],
    aggs: &dyn AggSource,
) -> SqlResult<Row> {
    let mut out = Vec::with_capacity(cols.len());
    for col in cols {
        out.push(match col {
            OutCol::Position(i) => row.get(*i).cloned().unwrap_or(Value::Null),
            OutCol::Expr(e) => eval(e, row, params, aggs)?,
        });
    }
    Ok(out)
}

fn run_plain(
    sel: &Select,
    bindings: &Bindings,
    rows: Vec<SrcRow<'_>>,
    params: &[Value],
    ctx: &RequestCtx,
    topk: Option<usize>,
) -> SqlResult<ResultSet> {
    if sel.having.is_some() {
        return Err(SqlError::syntax("HAVING requires GROUP BY or aggregates"));
    }
    let (labels, cols) = expand_items(sel, bindings)?;
    // Window pass: compute every distinct window expression over the full
    // row set before projection, so projection sees per-row values.
    let mut windows: Vec<Expr> = Vec::new();
    for col in &cols {
        if let OutCol::Expr(e) = col {
            collect_windows(e, &mut windows);
        }
    }
    let window_values = if windows.is_empty() {
        None
    } else {
        Some(compute_windows(&windows, &rows, params, ctx)?)
    };
    let mut pairs: Vec<(SrcRow<'_>, Row)> = Vec::with_capacity(rows.len()); // (src, out)
    for (i, src) in rows.into_iter().enumerate() {
        if i % CANCEL_STRIDE == 0 {
            check_cancel(ctx)?;
        }
        let out = match &window_values {
            Some(values) => {
                let source = WindowRowSource {
                    exprs: &windows,
                    values: values.iter().map(|per_row| per_row[i].clone()).collect(),
                };
                project(&cols, &src, params, &source)?
            }
            None => project(&cols, &src, params, &NoAggregates)?,
        };
        pairs.push((src, out));
    }
    finish_pipeline(sel, &labels, pairs, params, None, topk)
}

/// Collect the distinct window expressions in `expr` (windows cannot nest).
fn collect_windows(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Window(_) => {
            if !out.contains(expr) {
                out.push(expr.clone());
            }
        }
        Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) => {}
        Expr::Neg(i) | Expr::Not(i) => collect_windows(i, out),
        Expr::Binary { lhs, rhs, .. } => {
            collect_windows(lhs, out);
            collect_windows(rhs, out);
        }
        Expr::Like { expr, pattern, .. } => {
            collect_windows(expr, out);
            collect_windows(pattern, out);
        }
        Expr::IsNull { expr, .. } => collect_windows(expr, out),
        Expr::InList { expr, list, .. } => {
            collect_windows(expr, out);
            for e in list {
                collect_windows(e, out);
            }
        }
        Expr::Between { expr, lo, hi, .. } => {
            collect_windows(expr, out);
            collect_windows(lo, out);
            collect_windows(hi, out);
        }
        Expr::Func { args, .. } => {
            for a in args {
                collect_windows(a, out);
            }
        }
        Expr::Agg { arg, .. } => {
            if let Some(a) = arg {
                collect_windows(a, out);
            }
        }
        Expr::Subquery(_) | Expr::InSelect { .. } | Expr::Exists { .. } => {}
        Expr::Case {
            operand,
            arms,
            otherwise,
        } => {
            if let Some(op) = operand {
                collect_windows(op, out);
            }
            for (w, t) in arms {
                collect_windows(w, out);
                collect_windows(t, out);
            }
            if let Some(e) = otherwise {
                collect_windows(e, out);
            }
        }
        Expr::Cast { expr, .. } => collect_windows(expr, out),
    }
}

/// Per-row window values, looked up by window-expression identity during
/// projection.
struct WindowRowSource<'a> {
    exprs: &'a [Expr],
    values: Vec<Value>,
}

impl AggSource for WindowRowSource<'_> {
    fn agg_value(&self, _expr: &Expr) -> Option<Value> {
        None
    }

    fn window_value(&self, expr: &Expr) -> Option<Value> {
        self.exprs
            .iter()
            .position(|e| e == expr)
            .map(|i| self.values[i].clone())
    }
}

/// Evaluate each window expression for every row: partition, sort inside the
/// partition by the window ORDER BY (stable on source order), then number,
/// rank, or aggregate over the frame. With an ORDER BY, aggregates use the
/// SQL default frame — everything from the partition start through the
/// current row's last peer; without one, the whole partition.
fn compute_windows(
    windows: &[Expr],
    rows: &[SrcRow<'_>],
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<Vec<Vec<Value>>> {
    let t0 = analyze::start();
    let mut all = Vec::with_capacity(windows.len());
    for wexpr in windows {
        let Expr::Window(w) = wexpr else {
            unreachable!("collect_windows yields window expressions")
        };
        check_cancel(ctx)?;
        let mut values = vec![Value::Null; rows.len()];
        // Partition rows, preserving first-seen partition order.
        let mut part_order: Vec<Vec<Value>> = Vec::new();
        let mut parts: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (i, row) in rows.iter().enumerate() {
            if i % CANCEL_STRIDE == 0 {
                check_cancel(ctx)?;
            }
            let mut key = Vec::with_capacity(w.partition_by.len());
            for e in &w.partition_by {
                key.push(eval(e, row, params, &NoAggregates)?);
            }
            if !parts.contains_key(&key) {
                part_order.push(key.clone());
            }
            parts.entry(key).or_default().push(i);
        }
        for part_key in &part_order {
            let idxs = parts.remove(part_key).expect("partition recorded");
            // Order the partition by the window ORDER BY; without one the
            // keys are empty, leaving source order (every row a peer).
            let mut keyed: Vec<(Vec<Value>, usize)> = Vec::with_capacity(idxs.len());
            for &i in &idxs {
                let mut key = Vec::with_capacity(w.order_by.len());
                for ok in &w.order_by {
                    key.push(eval(&ok.expr, &rows[i], params, &NoAggregates)?);
                }
                keyed.push((key, i));
            }
            keyed.sort_by(|a, b| {
                for (j, ok) in w.order_by.iter().enumerate() {
                    let ord = a.0[j].order_key(&b.0[j]);
                    let ord = match ok.dir {
                        SortDir::Asc => ord,
                        SortDir::Desc => ord.reverse(),
                    };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                a.1.cmp(&b.1)
            });
            let sorted_rows: Vec<SrcRow<'_>> =
                keyed.iter().map(|&(_, i)| rows[i].clone()).collect();
            let n = keyed.len();
            let mut pos = 0;
            while pos < n {
                let mut end = pos + 1;
                while end < n && keyed[end].0 == keyed[pos].0 {
                    end += 1;
                }
                let peer_agg = match &w.func {
                    WindowFunc::Agg { func, arg } => {
                        let frame_end = if w.order_by.is_empty() { n } else { end };
                        let agg_expr = Expr::Agg {
                            func: *func,
                            arg: arg.clone(),
                            distinct: false,
                        };
                        Some(compute_agg(&agg_expr, &sorted_rows[..frame_end], params)?)
                    }
                    _ => None,
                };
                for p in pos..end {
                    let i = keyed[p].1;
                    values[i] = match &w.func {
                        WindowFunc::RowNumber => Value::Int(p as i64 + 1),
                        WindowFunc::Rank => Value::Int(pos as i64 + 1),
                        WindowFunc::Agg { .. } => peer_agg.clone().expect("computed above"),
                    };
                }
                pos = end;
            }
        }
        all.push(values);
    }
    analyze::record(OpId::Window, t0, rows.len() as u64, rows.len() as u64);
    Ok(all)
}

// ---------------------------------------------------------------------------
// Grouped / aggregate pipeline.
// ---------------------------------------------------------------------------

/// Pre-computed aggregate values for one group.
struct GroupAggs(Vec<(Expr, Value)>);

impl AggSource for GroupAggs {
    fn agg_value(&self, expr: &Expr) -> Option<Value> {
        self.0
            .iter()
            .find(|(e, _)| e == expr)
            .map(|(_, v)| v.clone())
    }
}

fn collect_aggs(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Agg { .. } => {
            if !out.contains(expr) {
                out.push(expr.clone());
            }
        }
        Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) => {}
        Expr::Neg(i) | Expr::Not(i) => collect_aggs(i, out),
        Expr::Binary { lhs, rhs, .. } => {
            collect_aggs(lhs, out);
            collect_aggs(rhs, out);
        }
        Expr::Like { expr, pattern, .. } => {
            collect_aggs(expr, out);
            collect_aggs(pattern, out);
        }
        Expr::IsNull { expr, .. } => collect_aggs(expr, out),
        Expr::InList { expr, list, .. } => {
            collect_aggs(expr, out);
            for e in list {
                collect_aggs(e, out);
            }
        }
        Expr::Between { expr, lo, hi, .. } => {
            collect_aggs(expr, out);
            collect_aggs(lo, out);
            collect_aggs(hi, out);
        }
        Expr::Func { args, .. } => {
            for a in args {
                collect_aggs(a, out);
            }
        }
        // Subqueries were rewritten to literals before grouping runs.
        Expr::Subquery(_) | Expr::InSelect { .. } | Expr::Exists { .. } => {}
        Expr::Case {
            operand,
            arms,
            otherwise,
        } => {
            if let Some(op) = operand {
                collect_aggs(op, out);
            }
            for (w, t) in arms {
                collect_aggs(w, out);
                collect_aggs(t, out);
            }
            if let Some(e) = otherwise {
                collect_aggs(e, out);
            }
        }
        Expr::Cast { expr, .. } => collect_aggs(expr, out),
        // A window call is its own evaluation unit, not a group aggregate;
        // grouped queries reject windows before this walker runs.
        Expr::Window(_) => {}
    }
}

fn compute_agg(agg: &Expr, rows: &[SrcRow<'_>], params: &[Value]) -> SqlResult<Value> {
    let Expr::Agg {
        func,
        arg,
        distinct,
    } = agg
    else {
        unreachable!("compute_agg called on non-aggregate")
    };
    // Gather the argument values over the group, skipping NULLs per SQL.
    let mut values: Vec<Value> = Vec::with_capacity(rows.len());
    match arg {
        None => {
            // COUNT(*): every row counts.
            return Ok(Value::Int(rows.len() as i64));
        }
        Some(arg) => {
            for row in rows {
                let v = eval(arg, row, params, &NoAggregates)?;
                if !v.is_null() {
                    values.push(v);
                }
            }
        }
    }
    if *distinct {
        let mut seen: Vec<Value> = Vec::new();
        values.retain(|v| {
            if seen.contains(v) {
                false
            } else {
                seen.push(v.clone());
                true
            }
        });
    }
    match func {
        AggFunc::Count => Ok(Value::Int(values.len() as i64)),
        AggFunc::Min => Ok(values
            .into_iter()
            .reduce(|a, b| if a.order_key(&b).is_le() { a } else { b })
            .unwrap_or(Value::Null)),
        AggFunc::Max => Ok(values
            .into_iter()
            .reduce(|a, b| if a.order_key(&b).is_ge() { a } else { b })
            .unwrap_or(Value::Null)),
        AggFunc::Sum | AggFunc::Avg => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let n = values.len();
            let mut int_sum: i64 = 0;
            let mut float_sum: f64 = 0.0;
            let mut all_int = true;
            for v in values {
                match v {
                    Value::Int(i) => {
                        int_sum = int_sum.wrapping_add(i);
                        float_sum += i as f64;
                    }
                    Value::Double(d) => {
                        all_int = false;
                        float_sum += d;
                    }
                    other => {
                        return Err(SqlError::type_mismatch(format!(
                            "{} over non-numeric value {other}",
                            func.name()
                        )))
                    }
                }
            }
            Ok(match func {
                AggFunc::Sum if all_int => Value::Int(int_sum),
                AggFunc::Sum => Value::Double(float_sum),
                AggFunc::Avg => Value::Double(float_sum / n as f64),
                _ => unreachable!(),
            })
        }
    }
}

fn run_grouped<'a>(
    sel: &Select,
    bindings: &Bindings,
    rows: Vec<SrcRow<'a>>,
    params: &[Value],
    ctx: &RequestCtx,
    topk: Option<usize>,
) -> SqlResult<ResultSet> {
    let windowed = sel
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_window()))
        || sel.group_by.iter().any(Expr::contains_window)
        || sel.having.as_ref().is_some_and(Expr::contains_window)
        || sel.order_by.iter().any(|k| k.expr.contains_window());
    if windowed {
        return Err(SqlError::syntax(
            "window functions cannot be combined with GROUP BY or aggregates",
        ));
    }
    let (labels, cols) = expand_items(sel, bindings)?;
    let agg_in = rows.len() as u64;
    let agg_t0 = analyze::start();

    // Partition rows into groups, preserving first-seen order.
    let mut group_order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Vec<SrcRow<'a>>> = HashMap::new();
    if sel.group_by.is_empty() {
        group_order.push(Vec::new());
        groups.insert(Vec::new(), rows);
    } else {
        for (i, row) in rows.into_iter().enumerate() {
            if i % CANCEL_STRIDE == 0 {
                check_cancel(ctx)?;
            }
            let mut key = Vec::with_capacity(sel.group_by.len());
            for g in &sel.group_by {
                key.push(eval(g, &row, params, &NoAggregates)?);
            }
            if !groups.contains_key(&key) {
                group_order.push(key.clone());
            }
            groups.entry(key).or_default().push(row);
        }
    }

    // The distinct aggregate expressions appearing anywhere downstream.
    let mut agg_exprs: Vec<Expr> = Vec::new();
    for item in &sel.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect_aggs(expr, &mut agg_exprs);
        }
    }
    if let Some(h) = &sel.having {
        collect_aggs(h, &mut agg_exprs);
    }
    for k in &sel.order_by {
        collect_aggs(&k.expr, &mut agg_exprs);
    }

    let width = bindings.width();
    let n_groups = group_order.len() as u64;
    let mut pairs: Vec<(SrcRow<'a>, Row)> = Vec::new(); // (representative src, out)
    let mut agg_sources: Vec<GroupAggs> = Vec::new();
    for key in group_order {
        check_cancel(ctx)?;
        let group_rows = groups.remove(&key).expect("group key recorded");
        let mut computed = Vec::with_capacity(agg_exprs.len());
        for agg in &agg_exprs {
            computed.push((agg.clone(), compute_agg(agg, &group_rows, params)?));
        }
        let aggs = GroupAggs(computed);
        // Representative row: the first row of the group, or all-NULL for the
        // empty global group (COUNT(*) over zero rows).
        let rep = group_rows
            .into_iter()
            .next()
            .unwrap_or_else(|| Cow::Owned(vec![Value::Null; width]));
        if let Some(h) = &sel.having {
            let having_t0 = analyze::start();
            let pass = eval_truth(h, &rep, params, &aggs)?.passes();
            analyze::record(OpId::Having, having_t0, 1, u64::from(pass));
            if !pass {
                continue;
            }
        }
        let out = project(&cols, &rep, params, &aggs)?;
        pairs.push((rep, out));
        agg_sources.push(aggs);
    }
    analyze::record(OpId::Aggregate, agg_t0, agg_in, n_groups);
    finish_pipeline(sel, &labels, pairs, params, Some(agg_sources), topk)
}

// ---------------------------------------------------------------------------
// Shared tail: DISTINCT → ORDER BY → OFFSET/LIMIT.
// ---------------------------------------------------------------------------

fn finish_pipeline(
    sel: &Select,
    labels: &[String],
    mut pairs: Vec<(SrcRow<'_>, Row)>,
    params: &[Value],
    agg_sources: Option<Vec<GroupAggs>>,
    topk: Option<usize>,
) -> SqlResult<ResultSet> {
    // DISTINCT over output rows.
    if sel.distinct {
        let distinct_in = pairs.len() as u64;
        let distinct_t0 = analyze::start();
        let mut seen: Vec<Row> = Vec::new();
        let mut kept_sources = agg_sources.as_ref().map(|_| Vec::new());
        let mut kept = Vec::with_capacity(pairs.len());
        for (i, (src, out)) in pairs.into_iter().enumerate() {
            if !seen.contains(&out) {
                seen.push(out.clone());
                if let (Some(kept_sources), Some(sources)) =
                    (kept_sources.as_mut(), agg_sources.as_ref())
                {
                    kept_sources.push(i);
                    let _ = sources;
                }
                kept.push((src, out));
            }
        }
        pairs = kept;
        analyze::record(OpId::Distinct, distinct_t0, distinct_in, pairs.len() as u64);
        // Note: after DISTINCT the agg sources for dropped rows are unneeded;
        // ORDER BY keys below re-evaluate only against kept pairs' own keys,
        // computed eagerly next, so we can discard the mapping safely.
    }

    // ORDER BY: compute sort keys eagerly for each row. With LIMIT k the
    // planner bounds the sort: a top-k heap keeps the best `offset + limit`
    // rows in O(n log k). Ties break on original index in both paths, which
    // makes the heap result exactly the stable full sort's prefix.
    if !sel.order_by.is_empty() {
        let sort_in = pairs.len() as u64;
        let sort_t0 = analyze::start();
        // Keys borrow the output or source value they name; only computed
        // keys are owned.
        let keys: Vec<Vec<Cow<'_, Value>>> = (pairs.iter().enumerate())
            .map(|(row_idx, (src, out))| {
                (sel.order_by.iter())
                    .map(|k| order_key_value(k, labels, src, out, params, row_idx, &agg_sources))
                    .collect::<SqlResult<Vec<_>>>()
            })
            .collect::<SqlResult<Vec<_>>>()?;
        let cmp = |a: usize, b: usize| -> std::cmp::Ordering {
            for (i, k) in sel.order_by.iter().enumerate() {
                let ord = keys[a][i].order_key(&keys[b][i]);
                let ord = match k.dir {
                    SortDir::Asc => ord,
                    SortDir::Desc => ord.reverse(),
                };
                if !ord.is_eq() {
                    return ord;
                }
            }
            a.cmp(&b)
        };
        let order: Vec<usize> = match topk {
            Some(k) if k < pairs.len() => {
                plan::record(|s| s.topk_sorts += 1);
                plan::top_k_indices(pairs.len(), k, &cmp)
            }
            _ => {
                let mut order: Vec<usize> = (0..pairs.len()).collect();
                order.sort_unstable_by(|&a, &b| cmp(a, b));
                order
            }
        };
        let mut sorted = Vec::with_capacity(order.len());
        let mut taken: Vec<Option<(SrcRow<'_>, Row)>> = pairs.into_iter().map(Some).collect();
        for idx in order {
            sorted.push(taken[idx].take().expect("permutation"));
        }
        pairs = sorted;
        analyze::record(OpId::Sort, sort_t0, sort_in, pairs.len() as u64);
    }

    let limited = sel.limit.is_some() || sel.offset.is_some();
    let limit_in = pairs.len() as u64;
    let limit_t0 = analyze::start();
    let offset = sel.offset.unwrap_or(0);
    let rows: Vec<Row> = pairs
        .into_iter()
        .map(|(_, out)| out)
        .skip(offset)
        .take(sel.limit.unwrap_or(usize::MAX))
        .collect();
    if limited {
        analyze::record(OpId::Limit, limit_t0, limit_in, rows.len() as u64);
    }
    Ok(ResultSet {
        columns: labels.to_vec(),
        rows,
    })
}

fn order_key_value<'a>(
    key: &'a OrderKey,
    labels: &[String],
    src: &'a [Value],
    out: &'a [Value],
    params: &'a [Value],
    row_idx: usize,
    agg_sources: &Option<Vec<GroupAggs>>,
) -> SqlResult<Cow<'a, Value>> {
    // SQL-92 positional sort: ORDER BY 2.
    if let Expr::Literal(Value::Int(n)) = &key.expr {
        let n = *n;
        if n >= 1 && (n as usize) <= out.len() {
            return Ok(Cow::Borrowed(&out[n as usize - 1]));
        }
        return Err(SqlError::syntax(format!(
            "ORDER BY position {n} is out of range"
        )));
    }
    // An output label (alias) takes priority over a source column, per SQL.
    if let Expr::Column(c) = &key.expr {
        if c.table.is_none() {
            if let Some(pos) = labels
                .iter()
                .position(|l| l.eq_ignore_ascii_case(&c.column))
            {
                return Ok(Cow::Borrowed(&out[pos]));
            }
        }
    }
    let aggs: &dyn AggSource = match agg_sources {
        Some(sources) => &sources[row_idx],
        None => &NoAggregates,
    };
    eval_ref(&key.expr, src, params, aggs)
}

// ---------------------------------------------------------------------------
// Subquery pre-execution.
// ---------------------------------------------------------------------------

fn select_has_subqueries(sel: &Select) -> bool {
    sel.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr.contains_subquery(),
        _ => false,
    }) || sel
        .where_clause
        .as_ref()
        .is_some_and(Expr::contains_subquery)
        || sel.having.as_ref().is_some_and(Expr::contains_subquery)
        || sel.group_by.iter().any(Expr::contains_subquery)
        || sel.order_by.iter().any(|k| k.expr.contains_subquery())
        || sel
            .joins
            .iter()
            .any(|j| j.on.as_ref().is_some_and(Expr::contains_subquery))
}

fn rewrite_select_subqueries(
    state: &DbState,
    sel: &Select,
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<Select> {
    let mut out = sel.clone();
    for item in &mut out.items {
        if let SelectItem::Expr { expr, .. } = item {
            *expr = rewrite_expr_subqueries(state, expr, params, ctx)?;
        }
    }
    if let Some(w) = &mut out.where_clause {
        *w = rewrite_expr_subqueries(state, w, params, ctx)?;
    }
    if let Some(h) = &mut out.having {
        *h = rewrite_expr_subqueries(state, h, params, ctx)?;
    }
    for g in &mut out.group_by {
        *g = rewrite_expr_subqueries(state, g, params, ctx)?;
    }
    for k in &mut out.order_by {
        k.expr = rewrite_expr_subqueries(state, &k.expr, params, ctx)?;
    }
    for j in &mut out.joins {
        if let Some(on) = &mut j.on {
            *on = rewrite_expr_subqueries(state, on, params, ctx)?;
        }
    }
    Ok(out)
}

/// Replace subquery nodes in `expr` by executing them against `state`.
///
/// Only *uncorrelated* subqueries are supported, matching the era (the web
/// workloads used them for pick-lists). A correlated reference surfaces as an
/// "unknown column" error from the inner query.
pub(crate) fn rewrite_expr_subqueries(
    state: &DbState,
    expr: &Expr,
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<Expr> {
    if !expr.contains_subquery() {
        return Ok(expr.clone());
    }
    check_cancel(ctx)?;
    let walk = |e: &Expr| rewrite_expr_subqueries(state, e, params, ctx);
    Ok(match expr {
        Expr::Subquery(select) => {
            let rs = run_select(state, select, params, ctx)?;
            if rs.columns.len() != 1 {
                return Err(SqlError::syntax(
                    "a scalar subquery must return exactly one column",
                ));
            }
            match rs.rows.len() {
                0 => Expr::Literal(Value::Null),
                1 => Expr::Literal(rs.rows[0][0].clone()),
                n => {
                    return Err(SqlError::syntax(format!(
                        "scalar subquery returned {n} rows"
                    )))
                }
            }
        }
        Expr::InSelect {
            expr,
            select,
            negated,
        } => {
            let rs = run_select(state, select, params, ctx)?;
            if rs.columns.len() != 1 {
                return Err(SqlError::syntax(
                    "an IN subquery must return exactly one column",
                ));
            }
            Expr::InList {
                expr: Box::new(walk(expr)?),
                list: rs
                    .rows
                    .into_iter()
                    .map(|mut r| Expr::Literal(r.remove(0)))
                    .collect(),
                negated: *negated,
            }
        }
        Expr::Exists { select, negated } => {
            // LIMIT 1 short-circuit: existence needs one row.
            let mut probe = (**select).clone();
            if probe.set_ops.is_empty() && probe.limit.is_none() {
                probe.limit = Some(1);
            }
            let rs = run_select(state, &probe, params, ctx)?;
            Expr::Literal(Value::Int(i64::from(rs.rows.is_empty() == *negated)))
        }
        Expr::Neg(i) => Expr::Neg(Box::new(walk(i)?)),
        Expr::Not(i) => Expr::Not(Box::new(walk(i)?)),
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(walk(lhs)?),
            rhs: Box::new(walk(rhs)?),
        },
        Expr::Like {
            expr,
            pattern,
            escape,
            negated,
        } => Expr::Like {
            expr: Box::new(walk(expr)?),
            pattern: Box::new(walk(pattern)?),
            escape: *escape,
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(walk(expr)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(walk(expr)?),
            list: list.iter().map(walk).collect::<SqlResult<_>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => Expr::Between {
            expr: Box::new(walk(expr)?),
            lo: Box::new(walk(lo)?),
            hi: Box::new(walk(hi)?),
            negated: *negated,
        },
        Expr::Func { name, args } => Expr::Func {
            name: name.clone(),
            args: args.iter().map(walk).collect::<SqlResult<_>>()?,
        },
        Expr::Agg {
            func,
            arg,
            distinct,
        } => Expr::Agg {
            func: *func,
            arg: match arg {
                Some(a) => Some(Box::new(walk(a)?)),
                None => None,
            },
            distinct: *distinct,
        },
        Expr::Case {
            operand,
            arms,
            otherwise,
        } => Expr::Case {
            operand: match operand {
                Some(o) => Some(Box::new(walk(o)?)),
                None => None,
            },
            arms: arms
                .iter()
                .map(|(w, t)| Ok((walk(w)?, walk(t)?)))
                .collect::<SqlResult<_>>()?,
            otherwise: match otherwise {
                Some(e) => Some(Box::new(walk(e)?)),
                None => None,
            },
        },
        Expr::Cast { expr, ty } => Expr::Cast {
            expr: Box::new(walk(expr)?),
            ty: *ty,
        },
        Expr::Window(w) => {
            let mut w = (**w).clone();
            if let WindowFunc::Agg { arg: Some(a), .. } = &mut w.func {
                **a = walk(a)?;
            }
            for e in &mut w.partition_by {
                *e = walk(e)?;
            }
            for key in &mut w.order_by {
                key.expr = walk(&key.expr)?;
            }
            Expr::Window(Box::new(w))
        }
        Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) => expr.clone(),
    })
}

// ---------------------------------------------------------------------------
// EXPLAIN.
// ---------------------------------------------------------------------------

/// Produce a plan description for a SELECT without running it.
pub fn explain_select(state: &DbState, sel: &Select, params: &[Value]) -> SqlResult<Vec<String>> {
    let mut lines = Vec::new();
    explain_into(
        state,
        sel,
        params,
        0,
        &mut lines,
        &PlanOptions::default(),
        None,
    )?;
    Ok(lines)
}

/// `EXPLAIN ANALYZE`: execute `sel` under an operator collector on `ctx`'s
/// clock, then render the plan tree with the observed actuals (rows in/out,
/// loops, wall time) appended to each operator's estimated line, plus a
/// trailing `TOTAL:` line for the whole statement.
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
    let mut lines = Vec::new();
    explain_into(state, sel, params, 0, &mut lines, &opts, Some(&actuals))?;
    lines.push(format!(
        "TOTAL: {} row{} returned, {:.3} ms",
        rs.len(),
        plural(rs.len()),
        total_ns as f64 / 1e6
    ));
    Ok(lines)
}

/// Append `line`, annotated with `op`'s observed actuals when an ANALYZE
/// collection is being rendered and the operator actually ran.
fn push_plan_line(
    lines: &mut Vec<String>,
    mut line: String,
    actuals: Option<&[(OpId, analyze::OpActuals)]>,
    op: OpId,
) {
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
}

#[allow(clippy::too_many_arguments)]
fn explain_into(
    state: &DbState,
    sel: &Select,
    params: &[Value],
    indent: usize,
    lines: &mut Vec<String>,
    opts: &PlanOptions,
    actuals: Option<&[(OpId, analyze::OpActuals)]>,
) -> SqlResult<()> {
    let pad = "  ".repeat(indent);
    if !sel.set_ops.is_empty() {
        lines.push(format!(
            "{pad}SET OPERATION ({} branches)",
            sel.set_ops.len() + 1
        ));
        // Branch actuals are not collected (their operator ids would collide
        // across branches), so the branches render estimates only.
        let mut first = sel.clone();
        first.set_ops = Vec::new();
        explain_into(state, &first, params, indent + 1, lines, opts, None)?;
        for (op, branch) in &sel.set_ops {
            lines.push(format!("{pad}  {op:?}"));
            explain_into(state, branch, params, indent + 1, lines, opts, None)?;
        }
        return Ok(());
    }
    let (sel, bindings) = prepare(state, sel, params, opts)?;
    let sel = &*sel;
    // Annotate scan/join lines with the cost model's row estimates (`est
    // rows`), which EXPLAIN ANALYZE pairs with the measured `actual rows`.
    let est = crate::cost::estimate_steps(state, sel, params);
    let est_note = |step: usize| -> String {
        match est.as_ref().and_then(|v| v.get(step)) {
            Some(rows) => format!(" (est rows={})", rows.round() as u64),
            None => String::new(),
        }
    };
    let sel_plan = plan::plan_select(sel, &bindings, opts);
    match &sel.from {
        None => lines.push(format!("{pad}VALUES (table-less SELECT)")),
        Some(base) => {
            if sel.joins.len() >= 2 {
                let mut names = vec![base.effective_name()];
                names.extend(sel.joins.iter().map(|j| j.table.effective_name()));
                lines.push(format!("{pad}JOIN ORDER: {}", names.join(" -> ")));
            }
            let table = state.table(&base.name)?;
            let access = scan_description(
                state,
                base.effective_name(),
                &base.name,
                &sel_plan.base.filters,
                params,
                opts,
            );
            match access {
                Some(desc) => push_plan_line(
                    lines,
                    format!("{pad}{desc}{}", est_note(0)),
                    actuals,
                    OpId::Base,
                ),
                None => push_plan_line(
                    lines,
                    format!(
                        "{pad}FULL SCAN {} ({} rows){}",
                        base.name,
                        table.heap.len(),
                        est_note(0)
                    ),
                    actuals,
                    OpId::Base,
                ),
            }
            for (j, join) in sel.joins.iter().enumerate() {
                let jp = &sel_plan.joins[j];
                if jp.use_hash {
                    push_plan_line(
                        lines,
                        format!(
                            "{pad}HASH {}JOIN {} ({} key{}){}",
                            if join.left_outer { "LEFT OUTER " } else { "" },
                            join.table.name,
                            jp.keys.len(),
                            plural(jp.keys.len()),
                            est_note(j + 1),
                        ),
                        actuals,
                        OpId::Join(j),
                    );
                } else {
                    push_plan_line(
                        lines,
                        format!(
                            "{pad}NESTED LOOP {}JOIN {}{}{}",
                            if join.left_outer { "LEFT OUTER " } else { "" },
                            join.table.name,
                            if join.on.is_some() {
                                " ON <cond>"
                            } else {
                                " (cross)"
                            },
                            est_note(j + 1),
                        ),
                        actuals,
                        OpId::Join(j),
                    );
                }
                if let Some(desc) = scan_description(
                    state,
                    join.table.effective_name(),
                    &join.table.name,
                    &jp.scan.filters,
                    params,
                    opts,
                ) {
                    push_plan_line(lines, format!("{pad}  {desc}"), actuals, OpId::JoinScan(j));
                }
            }
        }
    }
    if sel.where_clause.is_some() {
        push_plan_line(
            lines,
            format!("{pad}FILTER <where>"),
            actuals,
            OpId::WhereFilter,
        );
    }
    if sel
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_window()))
    {
        push_plan_line(lines, format!("{pad}WINDOW"), actuals, OpId::Window);
    }
    if !sel.group_by.is_empty()
        || sel
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
    {
        push_plan_line(
            lines,
            format!("{pad}AGGREGATE (group keys: {})", sel.group_by.len()),
            actuals,
            OpId::Aggregate,
        );
    }
    if sel.having.is_some() {
        push_plan_line(
            lines,
            format!("{pad}FILTER <having>"),
            actuals,
            OpId::Having,
        );
    }
    if sel.distinct {
        push_plan_line(lines, format!("{pad}DISTINCT"), actuals, OpId::Distinct);
    }
    if !sel.order_by.is_empty() {
        let line = match sel_plan.topk {
            Some(k) => format!("{pad}TOP-K SORT ({} keys, k={k})", sel.order_by.len()),
            None => format!("{pad}SORT ({} keys)", sel.order_by.len()),
        };
        push_plan_line(lines, line, actuals, OpId::Sort);
    }
    if sel.limit.is_some() || sel.offset.is_some() {
        push_plan_line(
            lines,
            format!(
                "{pad}LIMIT {}{}",
                sel.limit
                    .map(|l| l.to_string())
                    .unwrap_or_else(|| "ALL".into()),
                sel.offset
                    .map(|o| format!(" OFFSET {o}"))
                    .unwrap_or_default()
            ),
            actuals,
            OpId::Limit,
        );
    }
    Ok(())
}

/// Return a human description of the index probe serving `conjuncts`, if any
/// (used by EXPLAIN and the trace plan note; never touches the heap).
fn describe_access_path(
    state: &DbState,
    effective: &str,
    table_name: &str,
    bindings: &Bindings,
    conjuncts: &[&Expr],
    params: &[Value],
) -> Option<String> {
    let table = state.table(table_name).ok()?;
    for conj in conjuncts {
        // Mirror the executor: conjuncts the cost model votes against
        // probing are described as part of the scan, not as probes.
        if !crate::cost::probe_worthwhile(state, effective, table_name, conj, params) {
            continue;
        }
        let described = match conj {
            Expr::Binary { op, lhs, rhs }
                if matches!(
                    op,
                    BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
                ) =>
            {
                let col = column_of(lhs, effective)
                    .filter(|_| const_value(rhs, params).is_some())
                    .or_else(|| {
                        column_of(rhs, effective).filter(|_| const_value(lhs, params).is_some())
                    });
                col.and_then(|c| {
                    bindings.resolve(c).ok()?;
                    let ordinal = table.schema.column_index(&c.column)?;
                    let index = state.index_on(table_name, ordinal)?;
                    let kind = if *op == BinOp::Eq {
                        "equality"
                    } else {
                        "range"
                    };
                    Some(format!("INDEX {kind} PROBE {} ({})", index.name, c))
                })
            }
            Expr::Like {
                expr,
                pattern,
                escape,
                negated: false,
            } => column_of(expr, effective).and_then(|c| {
                let pat = match const_value(pattern, params)? {
                    Value::Text(t) => t,
                    _ => return None,
                };
                bindings.resolve(c).ok()?;
                let ordinal = table.schema.column_index(&c.column)?;
                let index = state.index_on(table_name, ordinal)?;
                let prefix = literal_prefix(&pat, *escape);
                if prefix.is_empty() {
                    return None;
                }
                Some(format!(
                    "INDEX prefix PROBE {} ({} LIKE '{}%…')",
                    index.name, c, prefix
                ))
            }),
            Expr::InList {
                expr,
                list,
                negated: false,
            } => column_of(expr, effective).and_then(|c| {
                if !list.iter().all(|e| const_value(e, params).is_some()) {
                    return None;
                }
                bindings.resolve(c).ok()?;
                let ordinal = table.schema.column_index(&c.column)?;
                let index = state.index_on(table_name, ordinal)?;
                Some(format!(
                    "INDEX IN-list PROBE {} ({}, {} keys)",
                    index.name,
                    c,
                    list.len()
                ))
            }),
            Expr::Between {
                expr,
                lo,
                hi,
                negated: false,
            } => column_of(expr, effective).and_then(|c| {
                const_value(lo, params)?;
                const_value(hi, params)?;
                bindings.resolve(c).ok()?;
                let ordinal = table.schema.column_index(&c.column)?;
                let index = state.index_on(table_name, ordinal)?;
                Some(format!("INDEX range PROBE {} ({} BETWEEN)", index.name, c))
            }),
            _ => None,
        };
        if described.is_some() {
            return described;
        }
    }
    None
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
    use crate::storage::Heap;
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
                stats: None,
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
            let row = vec![Value::Int(*c), Value::Text((*p).into()), Value::Double(*pr)];
            st.insert_row("orders", row).unwrap();
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
    fn order_by_alias() {
        let st = shop_state();
        let r = q(
            &st,
            "SELECT price * 2 AS doubled FROM orders ORDER BY doubled",
        );
        assert_eq!(r.columns, vec!["doubled"]);
        assert_eq!(r.rows[0][0], Value::Double(9.0));
    }

    #[test]
    fn wildcard_and_qualified_wildcard() {
        let st = shop_state();
        let r = q(&st, "SELECT * FROM orders LIMIT 1");
        assert_eq!(r.columns, vec!["custid", "product_name", "price"]);
        let r2 = q(&st, "SELECT o.* FROM orders o LIMIT 1");
        assert_eq!(r2.columns, r.columns);
    }

    #[test]
    fn distinct_removes_duplicates() {
        let st = shop_state();
        let r = q(&st, "SELECT DISTINCT custid FROM orders ORDER BY 1");
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(10100)],
                vec![Value::Int(10200)],
                vec![Value::Int(10300)]
            ]
        );
    }

    #[test]
    fn group_by_with_having() {
        let st = shop_state();
        let r = q(
            &st,
            "SELECT custid, COUNT(*) AS n, SUM(price) FROM orders \
             GROUP BY custid HAVING COUNT(*) > 1 ORDER BY 1",
        );
        assert_eq!(r.columns, vec!["custid", "n", "SUM(price)"]);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(10100));
        assert_eq!(r.rows[0][1], Value::Int(3));
        assert_eq!(r.rows[0][2], Value::Double(154.5));
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

    #[test]
    fn count_distinct() {
        let st = shop_state();
        let r = q(&st, "SELECT COUNT(DISTINCT product_name) FROM orders");
        assert_eq!(r.rows[0][0], Value::Int(4));
    }

    #[test]
    fn min_max_avg() {
        let st = shop_state();
        let r = q(
            &st,
            "SELECT MIN(price), MAX(price), AVG(price) FROM orders WHERE custid = 10100",
        );
        assert_eq!(r.rows[0][0], Value::Double(4.5));
        assert_eq!(r.rows[0][1], Value::Double(120.0));
        assert_eq!(r.rows[0][2], Value::Double((120.0 + 4.5 + 30.0) / 3.0));
    }

    #[test]
    fn tableless_select() {
        let st = DbState::default();
        let r = q(&st, "SELECT 1 + 1, 'x' || 'y'");
        assert_eq!(r.rows, vec![vec![Value::Int(2), Value::Text("xy".into())]]);
    }

    #[test]
    fn join_two_tables() {
        let mut st = shop_state();
        let defs = [
            ColumnDef {
                name: "custid".into(),
                ty: SqlType::Integer,
                not_null: true,
                primary_key: true,
                unique: false,
            },
            ColumnDef {
                name: "name".into(),
                ty: SqlType::Varchar,
                not_null: false,
                primary_key: false,
                unique: false,
            },
        ];
        let schema = TableSchema::from_defs("customers", &defs).unwrap();
        st.tables.insert(
            "customers".into(),
            Arc::new(TableData {
                schema,
                heap: Heap::new(),
                index_names: vec![],
                stats: None,
            }),
        );
        for (id, name) in [(10100, "Ada"), (10200, "Bob")] {
            st.insert_row("customers", vec![Value::Int(id), Value::Text(name.into())])
                .unwrap();
        }
        let r = q(
            &st,
            "SELECT c.name, COUNT(*) FROM orders o JOIN customers c ON o.custid = c.custid \
             GROUP BY c.name ORDER BY 2 DESC",
        );
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::Text("Ada".into()));
        assert_eq!(r.rows[0][1], Value::Int(3));
        // LEFT JOIN keeps the customer with no orders.
        let r2 = q(
            &st,
            "SELECT c.name FROM customers c LEFT JOIN orders o ON c.custid = o.custid \
             WHERE o.custid IS NULL",
        );
        assert!(r2.rows.is_empty()); // both customers have orders
    }

    #[test]
    fn left_join_pads_nulls() {
        let mut st = DbState::default();
        for (t, cols) in [("a", vec!["x"]), ("b", vec!["x"])] {
            let defs: Vec<ColumnDef> = cols
                .iter()
                .map(|c| ColumnDef {
                    name: (*c).into(),
                    ty: SqlType::Integer,
                    not_null: false,
                    primary_key: false,
                    unique: false,
                })
                .collect();
            st.tables.insert(
                t.into(),
                Arc::new(TableData {
                    schema: TableSchema::from_defs(t, &defs).unwrap(),
                    heap: Heap::new(),
                    index_names: vec![],
                    stats: None,
                }),
            );
        }
        st.insert_row("a", vec![Value::Int(1)]).unwrap();
        st.insert_row("a", vec![Value::Int(2)]).unwrap();
        st.insert_row("b", vec![Value::Int(1)]).unwrap();
        let r = q(
            &st,
            "SELECT a.x, b.x FROM a LEFT JOIN b ON a.x = b.x ORDER BY 1",
        );
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(2), Value::Null]
            ]
        );
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
            .map(|(id, r)| (id, r[1].clone()))
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
        st.insert_row("orders", vec![Value::Int(10400), Value::Null, Value::Null])
            .unwrap();
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

    /// orders (indexed on custid) plus a customers table carrying NULL keys.
    fn joined_state() -> DbState {
        let mut st = shop_state();
        let defs = [
            ColumnDef {
                name: "custid".into(),
                ty: SqlType::Integer,
                not_null: false,
                primary_key: false,
                unique: false,
            },
            ColumnDef {
                name: "name".into(),
                ty: SqlType::Varchar,
                not_null: false,
                primary_key: false,
                unique: false,
            },
        ];
        let schema = TableSchema::from_defs("customers", &defs).unwrap();
        st.tables.insert(
            "customers".into(),
            Arc::new(TableData {
                schema,
                heap: Heap::new(),
                index_names: vec![],
                stats: None,
            }),
        );
        let rows: &[(Value, &str)] = &[
            (Value::Int(10100), "Ada"),
            (Value::Int(10200), "Bob"),
            (Value::Null, "Nul"),
            (Value::Int(10900), "Zoe"),
        ];
        for (id, name) in rows {
            st.insert_row("customers", vec![id.clone(), Value::Text((*name).into())])
                .unwrap();
        }
        st
    }

    #[test]
    fn hash_join_matches_nested_loop_rows_and_order() {
        let st = joined_state();
        for sql in [
            "SELECT c.name, o.product_name FROM customers c JOIN orders o ON c.custid = o.custid",
            "SELECT c.name, o.product_name FROM customers c LEFT JOIN orders o \
             ON c.custid = o.custid",
            "SELECT c.name, o.price FROM customers c JOIN orders o \
             ON c.custid = o.custid AND o.price > 20",
        ] {
            let fast = q_opts(&st, sql, &PlanOptions::default());
            let slow = q_opts(&st, sql, &PlanOptions::baseline());
            assert_eq!(fast, slow, "plans diverge for {sql}");
        }
    }

    #[test]
    fn hash_left_outer_skips_null_keys_and_pads() {
        let st = joined_state();
        let sql = "SELECT c.name, o.product_name FROM customers c \
                   LEFT JOIN orders o ON c.custid = o.custid \
                   WHERE o.product_name IS NULL ORDER BY 1";
        let fast = q_opts(&st, sql, &PlanOptions::default());
        let slow = q_opts(&st, sql, &PlanOptions::baseline());
        assert_eq!(fast, slow);
        // NULL custid and unmatched 10900 both appear padded; no NULL=NULL match.
        assert_eq!(
            fast.rows,
            vec![
                vec![Value::Text("Nul".into()), Value::Null],
                vec![Value::Text("Zoe".into()), Value::Null],
            ]
        );
    }

    #[test]
    fn hash_join_counter_increments() {
        let st = joined_state();
        let before = dbgw_obs::metrics().join_hash.get();
        q_opts(
            &st,
            "SELECT c.name FROM customers c JOIN orders o ON c.custid = o.custid",
            &PlanOptions::default(),
        );
        assert!(dbgw_obs::metrics().join_hash.get() > before);
    }

    #[test]
    fn pushdown_enables_index_probe_under_join() {
        // Satellite regression: with a join present, the single-table WHERE
        // conjunct on the indexed base must still take the index access path.
        let st = joined_state();
        let sql = "SELECT o.product_name, c.name FROM orders o \
                   JOIN customers c ON o.custid = c.custid \
                   WHERE o.custid = 10100 ORDER BY 1";
        plan::reset_thread_stats();
        let fast = q_opts(&st, sql, &PlanOptions::default());
        let probed = plan::thread_stats().rows_scanned;
        plan::reset_thread_stats();
        let slow = q_opts(&st, sql, &PlanOptions::baseline());
        let walked = plan::thread_stats().rows_scanned;
        assert_eq!(fast, slow);
        assert_eq!(fast.rows.len(), 3);
        // Index probe touches exactly the 3 matching orders (+4 customers);
        // the baseline heap-walks all 5 orders.
        assert!(
            probed < walked,
            "index path scanned {probed} rows, baseline {walked}"
        );
        assert_eq!(probed, 3 + 4);
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

    #[test]
    fn empty_sides_match_baseline() {
        let mut st = joined_state();
        // Empty out customers (the probe side).
        let ids: Vec<_> = st
            .table("customers")
            .unwrap()
            .heap
            .iter()
            .map(|(id, _)| id)
            .collect();
        for id in ids {
            Arc::make_mut(st.tables.get_mut("customers").unwrap())
                .heap
                .delete(id);
        }
        for sql in [
            "SELECT * FROM customers c JOIN orders o ON c.custid = o.custid",
            "SELECT * FROM customers c LEFT JOIN orders o ON c.custid = o.custid",
            "SELECT * FROM orders o LEFT JOIN customers c ON o.custid = c.custid",
        ] {
            let fast = q_opts(&st, sql, &PlanOptions::default());
            let slow = q_opts(&st, sql, &PlanOptions::baseline());
            assert_eq!(fast, slow, "empty-side diverges for {sql}");
        }
    }

    #[test]
    fn cross_type_keys_match_via_hash() {
        // Int(10100) must hash-match Double(10100.0) exactly as `=` does.
        let mut st = joined_state();
        st.insert_row(
            "customers",
            vec![Value::Double(10300.0), Value::Text("Dot".into())],
        )
        .unwrap();
        let sql = "SELECT c.name, o.product_name FROM customers c \
                   JOIN orders o ON c.custid = o.custid ORDER BY 1, 2";
        let fast = q_opts(&st, sql, &PlanOptions::default());
        let slow = q_opts(&st, sql, &PlanOptions::baseline());
        assert_eq!(fast, slow);
        assert!(fast.rows.iter().any(|r| r[0] == Value::Text("Dot".into())));
    }
}
