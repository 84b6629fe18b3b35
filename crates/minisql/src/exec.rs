//! SELECT execution: scan → filter → group/aggregate → project → distinct →
//! sort → limit.
//!
//! A SELECT reads one table or none. Execution follows the plan produced by
//! `plan::plan_select`: the scan reads its table by the `AccessPath` the plan
//! stored for it (an index probe for equality, range, `IN` or
//! `LIKE 'prefix%'`, a full scan, or nothing) and keeps the rows passing the
//! WHERE conjuncts that name a column; the residual conjuncts run next, and
//! `ORDER BY … LIMIT k` keeps a bounded heap instead of sorting. Rows are
//! threaded as [`RowRef`]s borrowed from the heap's records, so a scan
//! clones nothing. Every candidate row is still checked against the
//! conjuncts that selected it, so plan choice can only change performance,
//! never results — a property the equivalence suite in
//! `tests/planner_equivalence.rs` exercises. UPDATE finds its target rows
//! through the same scan (`scan_where`).
//!
//! Each step has one implementation: one filter loop serves the scan and the
//! residual WHERE; one comparator sorts ORDER BY; one partitioner groups
//! GROUP BY; and a compound SELECT's hoisted ORDER BY / OFFSET / LIMIT runs
//! through the same tail as a single SELECT's, which is where EXPLAIN prints
//! it.
//!
//! The walkers here (aggregate collection, constant folding) recurse through
//! [`Expr::try_for_each_child`] and keep only their own stopping rule.
//! DISTINCT, `COUNT(DISTINCT …)` and the set operations deduplicate by
//! hashing, keeping first-seen order.

use crate::analyze::{self, OpId};
use crate::ast::{AggFunc, Expr, OrderKey, Select, SelectItem, SetOp, SortDir, TableRef};
use crate::error::{SqlCode, SqlError, SqlResult};
use crate::eval::{
    eval, eval_ref, eval_truth, overflow, AggSource, Bindings, Evaluated, NoAggregates,
};
use crate::index::Index;
use crate::plan::{self, AccessPath, Keys, PlanOptions, ScanPlan, SelectPlan};
use crate::state::DbState;
use crate::storage::{Record, RowId, RowRef};
use crate::types::Value;
use dbgw_obs::RequestCtx;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// A source row: borrowed straight from a heap ([`RowRef::EMPTY`] for a
/// table-less SELECT or a compound's combined rows).
type SrcRow<'a> = RowRef<'a>;

/// An output row.
type Row = Vec<Value>;

/// Cooperative-cancellation stride: the scan and grouping loops poll
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

/// Execute a compound SELECT (UNION / EXCEPT / INTERSECT): the branches
/// combine left to right, then the ORDER BY / OFFSET / LIMIT the parser
/// hoisted to the root run once over the combined rows, through the same
/// tail as a single SELECT ([`finish_pipeline`]).
fn run_compound(
    state: &DbState,
    sel: &Select,
    params: &[Value],
    ctx: &RequestCtx,
    opts: &PlanOptions,
) -> SqlResult<ResultSet> {
    // Compound selects occupy a block of their own, pushing the branches to
    // collector depth ≥ 2: per-operator actuals are not attributed for the
    // branches (their operator ids would collide), only for the tail.
    let _analyze_block = analyze::enter_block();
    let base = run_single(state, &first_branch(sel), params, ctx, opts)?;
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
        rows = set_op(*op, rows, rhs.rows);
    }
    // The combined rows have no source row.
    let pairs = rows.into_iter().map(|r| (RowRef::EMPTY, r)).collect();
    let topk = plan::topk_bound(sel, opts);
    finish_pipeline(sel, &base.columns, pairs, params, None, topk)
}

/// The root branch of a compound SELECT as it runs: without the other
/// branches and without the hoisted ORDER BY / OFFSET / LIMIT.
fn first_branch(sel: &Select) -> Select {
    Select {
        order_by: Vec::new(),
        limit: None,
        offset: None,
        set_ops: Vec::new(),
        ..sel.clone()
    }
}

/// Combine two branch results under `op`. The ALL forms count the right
/// side's rows: EXCEPT ALL keeps `max(l - r, 0)` copies of each row,
/// INTERSECT ALL `min(l, r)`.
fn set_op(op: SetOp, mut rows: Vec<Row>, rhs: Vec<Row>) -> Vec<Row> {
    let intersect = matches!(op, SetOp::Intersect { .. });
    match op {
        SetOp::Union { all } => {
            rows.extend(rhs);
            if !all {
                dedup(&mut rows);
            }
        }
        SetOp::Except { all: false } | SetOp::Intersect { all: false } => {
            let rhs: HashSet<&Row> = rhs.iter().collect();
            dedup(&mut rows);
            rows.retain(|r| rhs.contains(r) == intersect);
        }
        SetOp::Except { all: true } | SetOp::Intersect { all: true } => {
            let mut remaining: HashMap<&Row, usize> = HashMap::with_capacity(rhs.len());
            for r in &rhs {
                *remaining.entry(r).or_default() += 1;
            }
            rows.retain(|r| match remaining.get_mut(r) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    intersect
                }
                _ => !intersect,
            });
        }
    }
    rows
}

/// Hashed duplicate detection that keeps first-seen order: one flag per key,
/// true when the key equals no earlier one. Every DISTINCT, COUNT(DISTINCT)
/// and duplicate-eliminating set operation goes through here, relying on
/// `Value`'s `Hash` agreeing with its `Eq` as GROUP BY does.
fn first_seen<'k, K: Hash + Eq + 'k>(keys: impl ExactSizeIterator<Item = &'k K>) -> Vec<bool> {
    let mut seen = HashSet::with_capacity(keys.len());
    keys.map(|k| seen.insert(k)).collect()
}

/// Keep the items whose flag is set (one flag per item, in order).
fn retain_flagged<T>(items: &mut Vec<T>, keep: &[bool]) {
    let mut flags = keep.iter();
    items.retain(|_| *flags.next().expect("one flag per item"));
}

/// Drop every item equal to an earlier one.
fn dedup<T: Hash + Eq>(items: &mut Vec<T>) {
    let keep = first_seen(items.iter());
    retain_flagged(items, &keep);
}

fn run_single(
    state: &DbState,
    sel: &Select,
    params: &[Value],
    ctx: &RequestCtx,
    opts: &PlanOptions,
) -> SqlResult<ResultSet> {
    check_cancel(ctx)?;
    // One EXPLAIN ANALYZE block; a compound's branches re-enter run_single
    // at depth ≥ 2 and are excluded from the outer block's actuals.
    let _analyze_block = analyze::enter_block();
    let bindings = scope(state, sel)?;
    let mut sel = sel.clone();
    // 1. Bind: the SELECT list, GROUP BY, HAVING and ORDER BY resolve their
    // columns against the FROM scope here, once — unknown columns error even
    // when the table is empty (DB2 validated names at PREPARE) and no row
    // loop looks a name up again. WHERE conjuncts bind where the plan runs
    // them.
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

    // 2. Plan, then scan accordingly.
    let sel_plan = plan::plan_select(state, sel, bindings, params, opts);
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

    if sel_plan.grouped {
        run_grouped(sel, bindings, rows, params, ctx, sel_plan.topk)
    } else {
        run_plain(sel, bindings, rows, params, ctx, sel_plan.topk)
    }
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
        Some(t) => Ok(Bindings::single(
            t.effective_name(),
            column_names(state, &t.name)?,
        )),
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
    table: &TableRef,
    local: &Bindings,
    scan: &ScanPlan<'_>,
    params: &[Value],
    ctx: &RequestCtx,
    aop: OpId,
) -> SqlResult<Vec<(RowId, RowRef<'a>)>> {
    let analyze_t0 = analyze::start();
    let heap = &state.table(&table.name)?.heap;
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
    analyze::record(aop, analyze_t0, scanned, out.len() as u64);
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
    let table = TableRef {
        name: table.to_owned(),
        alias: None,
    };
    let local = Bindings::single(&table.name, column_names(state, &table.name)?);
    let mut filters = Vec::new();
    if let Some(p) = predicate {
        plan::flatten_and(p, &mut filters);
    }
    let scan = ScanPlan::new(state, &table, filters, params, &PlanOptions::default());
    scan_table(state, &table, &local, &scan, params, ctx, OpId::Base)
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
    let rows = scan_table(state, table, scope, scan, params, ctx, OpId::Base)?;
    Ok(rows.into_iter().map(|(_, r)| r).collect())
}

/// One-line plan summary for `DBGW_TRACE=1` request traces.
fn plan_note(sel: &Select, sel_plan: &SelectPlan<'_>) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut filters = 0;
    if let (Some(table), Some(scan)) = (&sel.from, &sel_plan.scan) {
        parts.push(format!("scan {}: {}", table.effective_name(), scan.access));
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
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                let names = match item {
                    SelectItem::QualifiedWildcard(table) => bindings
                        .table_columns(table)
                        .ok_or_else(|| SqlError::no_such_table(table))?,
                    _ => bindings.columns(),
                };
                for (i, name) in names.iter().enumerate() {
                    labels.push(name.clone());
                    cols.push(OutCol::Position(i));
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
    let mut pairs: Vec<(SrcRow<'_>, Row)> = Vec::with_capacity(rows.len()); // (src, out)
    for (i, src) in rows.into_iter().enumerate() {
        if i % CANCEL_STRIDE == 0 {
            check_cancel(ctx)?;
        }
        let out = project(&cols, src, params, &NoAggregates)?;
        pairs.push((src, out));
    }
    finish_pipeline(sel, &labels, pairs, params, None, topk)
}

/// Group `rows` by their values of `key_exprs`: the groups in first-seen
/// order, each a list of row indices in source order. GROUP BY groups here,
/// relying on `Value`'s `Hash` agreeing with its `Eq`.
fn partition(
    rows: &[SrcRow<'_>],
    key_exprs: &[Expr],
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<Vec<Vec<usize>>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: HashMap<Vec<Value>, usize> = HashMap::new();
    for (i, row) in rows.iter().enumerate() {
        if i % CANCEL_STRIDE == 0 {
            check_cancel(ctx)?;
        }
        let key = (key_exprs.iter())
            .map(|e| eval(e, *row, params, &NoAggregates))
            .collect::<SqlResult<Vec<_>>>()?;
        let g = *group_of.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }
    Ok(groups)
}

/// The row indices of `keys` (one key tuple per row) in `order_by` order,
/// ties broken by index, so the result is the stable sort. Under a top-k
/// bound only the first `k`, from a bounded heap in O(n log k): exactly the
/// full sort's prefix. The one sort comparator of the executor: ORDER BY of
/// a single or compound SELECT sorts here.
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

/// Collect the distinct aggregate calls in `expr`.
fn collect_aggs(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Agg { .. } if !out.contains(expr) => out.push(expr.clone()),
        Expr::Agg { .. } => {}
        _ => expr.for_each_child(|e| collect_aggs(e, out)),
    }
}

/// The aggregate `agg` over the rows at `group` (indices into `rows`).
fn compute_agg(
    agg: &Expr,
    rows: &[SrcRow<'_>],
    group: &[usize],
    params: &[Value],
) -> SqlResult<Value> {
    let Expr::Agg {
        func,
        arg,
        distinct,
    } = agg
    else {
        unreachable!("compute_agg called on non-aggregate")
    };
    let Some(arg) = arg else {
        // COUNT(*): every row counts.
        return Ok(Value::Int(group.len() as i64));
    };
    // Gather the argument values over the group, skipping NULLs per SQL.
    let mut values: Vec<Value> = Vec::with_capacity(group.len());
    for &i in group {
        let v = eval(arg, rows[i], params, &NoAggregates)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    if *distinct {
        dedup(&mut values);
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
            // `None` once the integer sum leaves i64; only SUM reports it.
            let mut int_sum = Some(0i64);
            let mut float_sum: f64 = 0.0;
            let mut all_int = true;
            for v in values {
                match v {
                    Value::Int(i) => {
                        int_sum = int_sum.and_then(|s| s.checked_add(i));
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
                AggFunc::Sum if all_int => Value::Int(int_sum.ok_or_else(overflow)?),
                AggFunc::Sum => Value::Double(float_sum),
                AggFunc::Avg => Value::Double(float_sum / n as f64),
                _ => unreachable!(),
            })
        }
    }
}

/// DB2's −122, checked once per statement after binding: every column a
/// grouped query outputs, or reads in HAVING or ORDER BY, outside an
/// aggregate is a GROUP BY key (by bound slot, so `t.k` matches `k`) or lies
/// inside an expression equal to a GROUP BY expression. Anything else would
/// read an arbitrary row of its group.
fn check_grouping(sel: &Select, labels: &[String], cols: &[OutCol]) -> SqlResult<()> {
    let key_slots: Vec<usize> = (sel.group_by.iter())
        .filter_map(|e| match e {
            Expr::Column(c) => c.slot,
            _ => None,
        })
        .collect();
    let ungrouped = |name: String| {
        SqlError::new(
            SqlCode::GROUPING,
            format!("column {name} is neither a GROUP BY key nor inside an aggregate"),
        )
    };
    let mut exprs = Vec::new();
    for (label, col) in labels.iter().zip(cols) {
        match col {
            OutCol::Position(slot) if !key_slots.contains(slot) => {
                return Err(ungrouped(label.clone()))
            }
            OutCol::Position(_) => {}
            OutCol::Expr(e) => exprs.push(e),
        }
    }
    exprs.extend(&sel.having);
    for key in &sel.order_by {
        if let SortKey::Expr(e) = sort_key(key, labels)? {
            exprs.push(e);
        }
    }
    for e in exprs {
        grouped_only(e, &sel.group_by, &key_slots).map_err(ungrouped)?;
    }
    Ok(())
}

/// [`check_grouping`]'s walk: the first column `e` reads outside an
/// aggregate, a GROUP BY key and an expression equal to a GROUP BY
/// expression, as `Err(name)`.
fn grouped_only(e: &Expr, group_by: &[Expr], key_slots: &[usize]) -> Result<(), String> {
    match e {
        Expr::Agg { .. } => Ok(()),
        _ if group_by.contains(e) => Ok(()),
        Expr::Column(c) if c.slot.is_some_and(|s| key_slots.contains(&s)) => Ok(()),
        Expr::Column(c) => Err(c.to_string()),
        _ => e.try_for_each_child(|c| grouped_only(c, group_by, key_slots)),
    }
}

fn run_grouped(
    sel: &Select,
    bindings: &Bindings,
    rows: Vec<SrcRow<'_>>,
    params: &[Value],
    ctx: &RequestCtx,
    topk: Option<usize>,
) -> SqlResult<ResultSet> {
    let (labels, cols) = expand_items(sel, bindings)?;
    check_grouping(sel, &labels, &cols)?;
    let agg_in = rows.len() as u64;
    let agg_t0 = analyze::start();

    // Without GROUP BY every row is in one group, even when there are none
    // (COUNT(*) over zero rows is a row).
    let groups = if sel.group_by.is_empty() {
        vec![(0..rows.len()).collect()]
    } else {
        partition(&rows, &sel.group_by, params, ctx)?
    };

    // The distinct aggregate expressions appearing anywhere downstream.
    let mut agg_exprs: Vec<Expr> = Vec::new();
    for e in sel.group_exprs() {
        collect_aggs(e, &mut agg_exprs);
    }

    // The empty global group's representative row.
    let nulls = Record::new(&vec![Value::Null; bindings.width()]);
    let n_groups = groups.len() as u64;
    let mut pairs = Vec::new(); // (representative src, out)
    let mut agg_sources: Vec<GroupAggs> = Vec::new();
    for group in &groups {
        check_cancel(ctx)?;
        let mut computed = Vec::with_capacity(agg_exprs.len());
        for agg in &agg_exprs {
            computed.push((agg.clone(), compute_agg(agg, &rows, group, params)?));
        }
        let aggs = GroupAggs(computed);
        // Representative row: the first row of the group, or all-NULL for
        // the empty global group.
        let rep = group.first().map_or(nulls.row(), |&i| rows[i]);
        if let Some(h) = &sel.having {
            let having_t0 = analyze::start();
            let pass = eval_truth(h, rep, params, &aggs)?.passes();
            analyze::record(OpId::Having, having_t0, 1, u64::from(pass));
            if !pass {
                continue;
            }
        }
        let out = project(&cols, rep, params, &aggs)?;
        pairs.push((rep, out));
        agg_sources.push(aggs);
    }
    analyze::record(OpId::Aggregate, agg_t0, agg_in, n_groups);
    finish_pipeline(sel, &labels, pairs, params, Some(agg_sources), topk)
}

// ---------------------------------------------------------------------------
// Shared tail: DISTINCT → ORDER BY → OFFSET/LIMIT.
// ---------------------------------------------------------------------------

/// The tail every SELECT ends in — plain, grouped, or the combined rows of a
/// compound. Each pair is a row's source tuple and its output row.
fn finish_pipeline(
    sel: &Select,
    labels: &[String],
    mut pairs: Vec<(SrcRow<'_>, Row)>,
    params: &[Value],
    mut agg_sources: Option<Vec<GroupAggs>>,
    topk: Option<usize>,
) -> SqlResult<ResultSet> {
    // A compound's DISTINCT belongs to its first branch, which ran it, and
    // its rows have no source row to evaluate a key expression against.
    let compound = !sel.set_ops.is_empty();
    // DISTINCT over output rows; a grouped query's aggregate sources follow
    // its rows, so ORDER BY below reads each kept row's own group.
    if sel.distinct && !compound {
        let distinct_in = pairs.len() as u64;
        let distinct_t0 = analyze::start();
        let keep = first_seen(pairs.iter().map(|(_, out)| out));
        retain_flagged(&mut pairs, &keep);
        if let Some(sources) = &mut agg_sources {
            retain_flagged(sources, &keep);
        }
        analyze::record(OpId::Distinct, distinct_t0, distinct_in, pairs.len() as u64);
    }

    // ORDER BY: compute sort keys eagerly for each row. With LIMIT k the
    // planner bounds the sort to the best `offset + limit` rows.
    if !sel.order_by.is_empty() {
        let sort_in = pairs.len() as u64;
        let sort_t0 = analyze::start();
        let sort_keys = (sel.order_by.iter())
            .map(|k| match sort_key(k, labels)? {
                SortKey::Expr(_) if compound => Err(SqlError::syntax(
                    "ORDER BY on a set operation must use output column names or positions",
                )),
                key => Ok(key),
            })
            .collect::<SqlResult<Vec<_>>>()?;
        // Keys borrow the output or source value they name; only computed
        // keys are owned.
        let keys: Vec<Vec<Evaluated<'_>>> = (pairs.iter().enumerate())
            .map(|(row_idx, (src, out))| {
                let aggs: &dyn AggSource = match &agg_sources {
                    Some(sources) => &sources[row_idx],
                    None => &NoAggregates,
                };
                (sort_keys.iter())
                    .map(|key| match key {
                        SortKey::Output(pos) => Ok(Evaluated::Borrowed(out[*pos].view())),
                        SortKey::Expr(e) => eval_ref(e, *src, params, aggs),
                    })
                    .collect::<SqlResult<Vec<_>>>()
            })
            .collect::<SqlResult<Vec<_>>>()?;
        let order = sort_order(&keys, &sel.order_by, topk);
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

/// Where an ORDER BY key's value comes from, decided once per statement.
enum SortKey<'k> {
    /// The output column at this position.
    Output(usize),
    /// An expression over the source row (and the row's group aggregates).
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
    let mut lines = Vec::new();
    explain_into(state, sel, params, 0, &mut lines, None)?;
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
    explain_into(state, sel, params, 0, &mut lines, Some(&actuals))?;
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

/// Append the plan of `sel`, as it runs under the default [`PlanOptions`],
/// indented `indent` levels.
fn explain_into(
    state: &DbState,
    sel: &Select,
    params: &[Value],
    indent: usize,
    lines: &mut Vec<String>,
    actuals: Option<&[(OpId, analyze::OpActuals)]>,
) -> SqlResult<()> {
    let opts = &PlanOptions::default();
    let pad = "  ".repeat(indent);
    if !sel.set_ops.is_empty() {
        lines.push(format!(
            "{pad}SET OPERATION ({} branches)",
            sel.set_ops.len() + 1
        ));
        // Branch actuals are not collected (their operator ids would collide
        // across branches), so the branches render estimates only. The
        // hoisted ORDER BY / LIMIT runs once, over the combined rows: its
        // lines follow the branches, at this level.
        explain_into(state, &first_branch(sel), params, indent + 1, lines, None)?;
        for (op, branch) in &sel.set_ops {
            lines.push(format!("{pad}  {op:?}"));
            explain_into(state, branch, params, indent + 1, lines, None)?;
        }
        explain_tail(lines, &pad, sel, plan::topk_bound(sel, opts), actuals);
        return Ok(());
    }
    let bindings = scope(state, sel)?;
    let sel_plan = plan::plan_select(state, sel, &bindings, params, opts);
    match (&sel.from, &sel_plan.scan) {
        (Some(table), Some(scan)) => {
            // The cost model's row estimate (`est rows`), which EXPLAIN
            // ANALYZE pairs with the measured `actual rows`.
            let est = match crate::cost::estimate_rows(state, table, &scan.filters, params) {
                Some(rows) => format!(" (est rows={})", rows.round() as u64),
                None => String::new(),
            };
            let line = format!("{pad}{}{est}", scan.access);
            push_plan_line(lines, line, actuals, OpId::Base);
        }
        _ => lines.push(format!("{pad}VALUES (table-less SELECT)")),
    }
    if sel.where_clause.is_some() {
        push_plan_line(
            lines,
            format!("{pad}FILTER <where>"),
            actuals,
            OpId::WhereFilter,
        );
    }
    if sel_plan.grouped {
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
    explain_tail(lines, &pad, sel, sel_plan.topk, actuals);
    Ok(())
}

/// The SORT and LIMIT lines of the tail [`finish_pipeline`] runs.
fn explain_tail(
    lines: &mut Vec<String>,
    pad: &str,
    sel: &Select,
    topk: Option<usize>,
    actuals: Option<&[(OpId, analyze::OpActuals)]>,
) {
    if !sel.order_by.is_empty() {
        let line = match topk {
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
    use dbgw_testkit::gen::{usizes, vec_of};
    use dbgw_testkit::{prop_assert_eq, props};
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

    /// The quadratic deduplication and bag arithmetic the hashed helpers
    /// replaced, kept as the reference they must agree with.
    fn naive_set_op(op: SetOp, rows: Vec<Row>, rhs: Vec<Row>) -> Vec<Row> {
        let distinct = |rows: Vec<Row>| {
            let mut seen: Vec<Row> = Vec::new();
            for r in rows {
                if !seen.contains(&r) {
                    seen.push(r);
                }
            }
            seen
        };
        // Each right row cancels (or matches) at most one left copy.
        let mut remaining = rhs.clone();
        let mut take = |r: &Row| {
            let found = remaining.iter().position(|x| x == r);
            found.map(|i| remaining.swap_remove(i)).is_some()
        };
        match op {
            SetOp::Union { all: true } => [rows, rhs].concat(),
            SetOp::Union { all: false } => distinct([rows, rhs].concat()),
            SetOp::Except { all: false } => distinct(rows)
                .into_iter()
                .filter(|r| !rhs.contains(r))
                .collect(),
            SetOp::Intersect { all: false } => distinct(rows)
                .into_iter()
                .filter(|r| rhs.contains(r))
                .collect(),
            SetOp::Except { all: true } => rows.into_iter().filter(|r| !take(r)).collect(),
            SetOp::Intersect { all: true } => rows.into_iter().filter(|r| take(r)).collect(),
        }
    }

    /// Values that are equal across types (`Int(1)`, `Double(1.0)`), equal
    /// to themselves only bitwise (NaN), or look alike without being equal
    /// (`Int(0)` / `Double(-0.0)`, `'1'`, NULL).
    fn pool_value(i: usize) -> Value {
        [
            Value::Null,
            Value::Int(1),
            Value::Double(1.0),
            Value::Double(f64::NAN),
            Value::Text("1".into()),
            Value::Text("a".into()),
            Value::Int(0),
            Value::Double(-0.0),
        ][i]
            .clone()
    }

    fn pool_rows(picks: &[(usize, usize)]) -> Vec<Row> {
        (picks.iter())
            .map(|&(a, b)| vec![pool_value(a), pool_value(b)])
            .collect()
    }

    props! {
        /// The hashed deduplication UNION, DISTINCT and COUNT(DISTINCT)
        /// share, and the bag counting of the ALL forms, give exactly the
        /// naive quadratic result: the same rows, the same first-seen
        /// copies, in the same order (compared by `Debug`, which tells
        /// `Int(1)` from `Double(1.0)`).
        fn hashed_dedup_matches_the_naive_reference(
            lhs in vec_of((usizes(0..8), usizes(0..8)), 0..=24),
            rhs in vec_of((usizes(0..8), usizes(0..8)), 0..=24),
        ) {
            let (lhs, rhs) = (pool_rows(&lhs), pool_rows(&rhs));
            for all in [false, true] {
                for op in [SetOp::Union { all }, SetOp::Except { all }, SetOp::Intersect { all }] {
                    let hashed = set_op(op, lhs.clone(), rhs.clone());
                    let naive = naive_set_op(op, lhs.clone(), rhs.clone());
                    prop_assert_eq!(format!("{hashed:?}"), format!("{naive:?}"), "{op}");
                }
            }
        }
    }
}
