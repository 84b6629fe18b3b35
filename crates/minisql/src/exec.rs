//! SELECT execution: scan → join → filter → group/aggregate → project →
//! distinct → sort → limit.
//!
//! Execution follows the plan produced by `plan::plan_select`:
//! WHERE/ON conjuncts are pushed to the scans that can evaluate them, each
//! scan reads its table by the `AccessPath` the plan stored for it (an
//! index probe for equality, range, `IN` or `LIKE 'prefix%'` — on the base of
//! a join as well as its sides — a full scan, or nothing), equi-joins run as
//! hash joins with a nested-loop fallback for everything else, and
//! `ORDER BY … LIMIT k` keeps a bounded heap instead of sorting. Intermediate
//! rows are threaded as borrowed [`Cow`] slices so a scan clones nothing and
//! only rows surviving a join are materialized. Every candidate row is still
//! checked against the conjuncts that selected it, so plan choice can only
//! change performance, never results — a property the equivalence suite in
//! `tests/planner_equivalence.rs` exercises. UPDATE and DELETE find their
//! target rows through the same single-table scan (`scan_where`).
//!
//! Each step has one implementation: one filter loop serves the scans, the
//! residual WHERE and the join filters; one comparator sorts ORDER BY and
//! window ORDER BY; one partitioner groups GROUP BY and PARTITION BY; and a
//! compound SELECT's hoisted ORDER BY / OFFSET / LIMIT runs through the same
//! tail as a single SELECT's, which is where EXPLAIN prints it.
//!
//! Uncorrelated subqueries run first and are replaced in place by their
//! results, so the evaluator never needs the database. The walkers here
//! (subquery rewriting, aggregate and window collection, constant folding)
//! recurse through [`Expr::try_for_each_child`] and its `_mut` twin and keep
//! only their own stopping rule. DISTINCT, `COUNT(DISTINCT …)` and the set
//! operations deduplicate by hashing, keeping first-seen order.

use crate::analyze::{self, OpId};
use crate::ast::{
    AggFunc, Expr, OrderKey, Select, SelectItem, SetOp, SortDir, TableRef, WindowFunc,
};
use crate::error::{SqlError, SqlResult};
use crate::eval::{eval, eval_ref, eval_truth, AggSource, Bindings, NoAggregates};
use crate::index::Index;
use crate::plan::{self, AccessPath, JoinPlan, Keys, PlanOptions, ScanPlan, SelectPlan};
use crate::state::DbState;
use crate::storage::{Row, RowId};
use crate::types::Value;
use dbgw_obs::RequestCtx;
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

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
    let pairs = rows
        .into_iter()
        .map(|r| (Cow::Borrowed(&[][..]), r))
        .collect();
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
    let (sel, bindings) = prepare(state, sel, params, opts)?;
    if matches!(sel, Cow::Owned(_)) {
        dbgw_obs::metrics().join_reorders.inc();
    }
    // Pre-execute any (uncorrelated) subqueries, replacing them with literal
    // lists/values, so the scalar evaluator never needs database access. The
    // rewrite leaves FROM and JOIN tables alone, so the scope still holds.
    let mut sel = sel.into_owned();
    sel.try_for_each_expr_mut(|e| rewrite_subqueries(state, e, params, ctx))?;
    // 1. Bind: the SELECT list, GROUP BY, HAVING and ORDER BY resolve their
    // columns against the FROM scope here, once — unknown columns error even
    // when the table is empty (DB2 validated names at PREPARE) and no row
    // loop looks a name up again. WHERE and ON conjuncts bind where the plan
    // runs them, in that stage's scope.
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
    let sel_plan = plan::plan_select(state, sel, bindings, params, opts);
    if dbgw_obs::trace::trace_active() {
        dbgw_obs::trace::note("plan", plan_note(sel, &sel_plan));
    }
    if !sel.joins.is_empty() && sel_plan.pushed_where > 0 {
        dbgw_obs::metrics().pushdown_applied.inc();
    }
    let residual = bind_all(&sel_plan.residual, bindings)?;
    let rows = execute_source(state, sel, &sel_plan, bindings, params, ctx)?;

    // 3. Residual WHERE conjuncts (everything the planner did not push).
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

/// The full FROM-clause scope: base table plus every join, in order. The
/// only place a SELECT reads its tables' column lists; each stage's scope is
/// a [`Bindings::slice`] of this one.
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
/// pass every pushed conjunct (bound to `local`, the table's own scope).
/// Returns borrowed rows with their ids — nothing is cloned here.
fn scan_table<'a>(
    state: &'a DbState,
    table: &TableRef,
    local: &Bindings,
    scan: &ScanPlan<'_>,
    params: &[Value],
    ctx: &RequestCtx,
    aop: OpId,
) -> SqlResult<Vec<(RowId, &'a Row)>> {
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

/// A row the filter loop tests: a scanned heap row with its id, or a
/// (partially) joined tuple.
trait Candidate {
    fn values(&self) -> &[Value];
}

impl Candidate for (RowId, &Row) {
    fn values(&self) -> &[Value] {
        self.1
    }
}

impl Candidate for SrcRow<'_> {
    fn values(&self) -> &[Value] {
        self
    }
}

/// The `candidates` that pass every filter, and how many were read. The one
/// filter loop: scans, the residual WHERE and the join filters all run here.
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

/// The single-table scan behind UPDATE and DELETE: the rows of `table` that
/// pass `predicate` (its subqueries already run), found by the access path a
/// `SELECT * FROM table WHERE predicate` takes.
pub(crate) fn scan_where<'a>(
    state: &'a DbState,
    table: &str,
    predicate: Option<&Expr>,
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<Vec<(RowId, &'a Row)>> {
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

/// Materialize the FROM + JOIN pipeline under `sel_plan`; `scope` is the
/// full FROM-clause scope.
fn execute_source<'a>(
    state: &'a DbState,
    sel: &Select,
    sel_plan: &SelectPlan<'_>,
    scope: &Bindings,
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<Vec<SrcRow<'a>>> {
    let Some(base) = &sel.from else {
        // Table-less SELECT evaluates items once against an empty row.
        return Ok(vec![Cow::Owned(Vec::new())]);
    };
    // FROM-clause table `t`, read by its planned access path.
    let scan = |t: usize, table: &TableRef, aop: OpId| {
        let local = scope.slice(t..t + 1);
        scan_table(state, table, &local, &sel_plan.scans[t], params, ctx, aop)
    };
    let base_rows = scan(0, base, OpId::Base)?;
    let mut rows: Vec<SrcRow<'a>> = (base_rows.into_iter())
        .map(|(_, r)| Cow::Borrowed(r.as_slice()))
        .collect();
    for (j, join) in sel.joins.iter().enumerate() {
        if rows.is_empty() {
            // A join (inner or LEFT OUTER) of an empty left side is empty;
            // skip the right scan (and its predicate evaluation) entirely.
            analyze::record(OpId::Join(j), analyze::start(), 0, 0);
            continue;
        }
        let right_scan = scan(j + 1, &join.table, OpId::JoinScan(j))?;
        let right_rows: Vec<&Row> = right_scan.into_iter().map(|(_, r)| r).collect();
        // Prefix scope: the tables bound so far, so predicate evaluation at
        // join j sees exactly those (a reference to a later table errors).
        let prefix = scope.slice(0..j + 2);
        let right_local = scope.slice(j + 1..j + 2);
        let join_in = rows.len() as u64;
        let join_t0 = analyze::start();
        rows = join_step(
            rows,
            right_rows,
            &sel_plan.joins[j],
            join.left_outer,
            &prefix,
            &right_local,
            params,
            ctx,
        )?;
        analyze::record(OpId::Join(j), join_t0, join_in, rows.len() as u64);
    }
    Ok(rows)
}

/// One join step: pre-filter the left side (inner joins), pair each left
/// row with its candidate right rows — equal join keys under a hash join,
/// every right row under a nested loop — keeping the pairs that pass the
/// residual and NULL-padding a LEFT OUTER row without one, then apply the
/// post-join WHERE conjuncts. Output order is left rows in scan order, each
/// row's matches in right scan order, whichever the strategy. `prefix` is
/// the scope of the joined tuple, `right_local` the right table's own.
#[allow(clippy::too_many_arguments)]
fn join_step<'a>(
    left: Vec<SrcRow<'a>>,
    right_rows: Vec<&'a Row>,
    jp: &JoinPlan<'_>,
    left_outer: bool,
    prefix: &Bindings,
    right_local: &Bindings,
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<Vec<SrcRow<'a>>> {
    let residual = bind_all(&jp.residual, prefix)?;
    let left = filter_rows(left, &bind_all(&jp.left_filters, prefix)?, params, ctx)?;
    // The candidate (left, right) index pairs, in left-major order.
    let pairs: Box<dyn Iterator<Item = (usize, usize)>> = if jp.use_hash {
        dbgw_obs::metrics().join_hash.inc();
        let left_keys = (jp.keys.iter())
            .map(|(l, _)| prefix.bound(l))
            .collect::<SqlResult<Vec<_>>>()?;
        let right_keys = (jp.keys.iter())
            .map(|(_, r)| right_local.bound(r))
            .collect::<SqlResult<Vec<_>>>()?;
        let lefts = left.iter().map(|r| &r[..]);
        let rights = right_rows.iter().map(|r| r.as_slice());
        // Build on the smaller side for inner joins, then sort the matches
        // back into left-major order; LEFT OUTER always builds on the right.
        let pairs = if !left_outer && left.len() < right_rows.len() {
            let mut pairs = key_matches(lefts, &left_keys, rights, &right_keys, params, ctx)?;
            pairs.sort_unstable();
            pairs
        } else {
            let pairs = key_matches(rights, &right_keys, lefts, &left_keys, params, ctx)?;
            pairs.into_iter().map(|(r, l)| (l, r)).collect()
        };
        Box::new(pairs.into_iter())
    } else {
        dbgw_obs::metrics().join_nested.inc();
        let n = right_rows.len();
        Box::new((0..left.len()).flat_map(move |l| (0..n).map(move |r| (l, r))))
    };
    // Pairs are assembled in a scratch buffer; only passing pairs are cloned
    // into the output.
    let mut pairs = pairs.peekable();
    let right_width = right_local.width();
    let mut joined: Vec<SrcRow<'a>> = Vec::new();
    let mut buf: Vec<Value> = Vec::new();
    let mut tried = 0usize;
    for (li, lrow) in left.into_iter().enumerate() {
        let mut matched = false;
        buf.clear();
        while let Some((_, ri)) = pairs.next_if(|&(l, _)| l == li) {
            tried += 1;
            if tried.is_multiple_of(CANCEL_STRIDE) {
                check_cancel(ctx)?;
            }
            // Copy the left row only once it has a candidate: under a hash
            // join most left rows may have none.
            if buf.is_empty() {
                buf.extend_from_slice(&lrow);
            }
            buf.truncate(lrow.len());
            buf.extend(right_rows[ri].iter().cloned());
            if passes_all(&residual, &buf, params)? {
                matched = true;
                joined.push(Cow::Owned(buf.clone()));
            }
        }
        if left_outer && !matched {
            let mut padded = lrow.into_owned();
            padded.extend(std::iter::repeat_n(Value::Null, right_width));
            joined.push(Cow::Owned(padded));
        }
    }
    filter_rows(joined, &bind_all(&jp.post_filters, prefix)?, params, ctx)
}

/// The `(build, probe)` index pairs of rows with equal join keys, in probe
/// order, each probe row's matches in build order. Nothing is probed when
/// no build row has a key.
fn key_matches<'r>(
    build: impl ExactSizeIterator<Item = &'r [Value]>,
    build_keys: &[Expr],
    probe: impl Iterator<Item = &'r [Value]>,
    probe_keys: &[Expr],
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<Vec<(usize, usize)>> {
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(build.len());
    for (i, row) in build.enumerate() {
        if i % CANCEL_STRIDE == 0 {
            check_cancel(ctx)?;
        }
        if let Some(key) = join_key(build_keys, row, params)? {
            table.entry(key).or_default().push(i);
        }
    }
    let mut pairs = Vec::new();
    if table.is_empty() {
        return Ok(pairs);
    }
    for (j, row) in probe.enumerate() {
        if j % CANCEL_STRIDE == 0 {
            check_cancel(ctx)?;
        }
        if let Some(key) = join_key(probe_keys, row, params)? {
            pairs.extend(table.get(&key).into_iter().flatten().map(|&i| (i, j)));
        }
    }
    Ok(pairs)
}

/// A row's join key under `exprs`, or `None` when a part is NULL (UNKNOWN)
/// or NaN (incomparable): such a key can never compare TRUE under `=`, so
/// the row joins nothing on either the build or the probe side, matching
/// 3-valued `=` exactly.
fn join_key(exprs: &[Expr], row: &[Value], params: &[Value]) -> SqlResult<Option<Vec<Value>>> {
    let mut key = Vec::with_capacity(exprs.len());
    for e in exprs {
        let v = eval(e, row, params, &NoAggregates)?;
        if v.is_null() || matches!(v, Value::Double(d) if d.is_nan()) {
            return Ok(None);
        }
        key.push(v);
    }
    Ok(Some(key))
}

/// One-line plan summary for `DBGW_TRACE=1` request traces.
fn plan_note(sel: &Select, sel_plan: &SelectPlan<'_>) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(base) = &sel.from {
        parts.push(format!(
            "scan {}: {}",
            base.effective_name(),
            sel_plan.scans[0].access
        ));
    }
    for (j, join) in sel.joins.iter().enumerate() {
        let jp = &sel_plan.joins[j];
        let strategy = if jp.use_hash {
            format!("hash({} key{})", jp.keys.len(), plural(jp.keys.len()))
        } else {
            "nested".to_string()
        };
        parts.push(format!(
            "join {}={strategy}: {}",
            join.table.effective_name(),
            sel_plan.scans[j + 1].access
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

/// Constant-fold an expression with no column references.
pub(crate) fn const_value(expr: &Expr, params: &[Value]) -> Option<Value> {
    // Aggregates and windows depend on the row set, and unrewritten
    // subqueries cannot be evaluated here: none of them folds.
    fn has_column(e: &Expr) -> bool {
        matches!(
            e,
            Expr::Column(_)
                | Expr::Agg { .. }
                | Expr::Window(_)
                | Expr::Subquery(_)
                | Expr::InSelect { .. }
                | Expr::Exists { .. }
        ) || e.any_child(has_column)
    }
    if has_column(expr) {
        return None;
    }
    eval(expr, &[], params, &NoAggregates).ok()
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
        Expr::Window(_) if !out.contains(expr) => out.push(expr.clone()),
        Expr::Window(_) => {}
        _ => expr.for_each_child(|e| collect_windows(e, out)),
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
        for part in partition(rows, &w.partition_by, params, ctx)? {
            // Order the partition by the window ORDER BY; without one the
            // keys are empty, leaving source order (every row a peer).
            let keys = (part.iter())
                .map(|&i| {
                    (w.order_by.iter())
                        .map(|k| eval(&k.expr, &rows[i], params, &NoAggregates))
                        .collect::<SqlResult<Vec<_>>>()
                })
                .collect::<SqlResult<Vec<_>>>()?;
            let order = sort_order(&keys, &w.order_by, None);
            // The partition's row indices in window order.
            let sorted: Vec<usize> = order.iter().map(|&j| part[j]).collect();
            let n = sorted.len();
            let mut pos = 0;
            while pos < n {
                let mut end = pos + 1;
                while end < n && keys[order[end]] == keys[order[pos]] {
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
                        Some(compute_agg(&agg_expr, rows, &sorted[..frame_end], params)?)
                    }
                    _ => None,
                };
                for (p, &i) in sorted.iter().enumerate().take(end).skip(pos) {
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

/// Group `rows` by their values of `key_exprs`: the groups in first-seen
/// order, each a list of row indices in source order. GROUP BY and window
/// PARTITION BY both group here, relying on `Value`'s `Hash` agreeing with
/// its `Eq`.
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
            .map(|e| eval(e, row, params, &NoAggregates))
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
/// full sort's prefix. The one sort comparator of the executor: ORDER BY
/// (single or compound SELECT) and window ORDER BY both sort here.
fn sort_order<K: Borrow<Value>>(
    keys: &[Vec<K>],
    order_by: &[OrderKey],
    topk: Option<usize>,
) -> Vec<usize> {
    let cmp = |a: usize, b: usize| -> Ordering {
        for ((x, y), key) in keys[a].iter().zip(&keys[b]).zip(order_by) {
            let ord = x.borrow().order_key(y.borrow());
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

/// Collect the distinct aggregate calls in `expr`. A window call is its own
/// evaluation unit, not a group aggregate (grouped queries reject windows
/// before this runs); subqueries were rewritten to literals before grouping.
fn collect_aggs(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Agg { .. } if !out.contains(expr) => out.push(expr.clone()),
        Expr::Agg { .. } | Expr::Window(_) => {}
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
        let v = eval(arg, &rows[i], params, &NoAggregates)?;
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

fn run_grouped(
    sel: &Select,
    bindings: &Bindings,
    mut rows: Vec<SrcRow<'_>>,
    params: &[Value],
    ctx: &RequestCtx,
    topk: Option<usize>,
) -> SqlResult<ResultSet> {
    let mut per_group = sel.group_by.iter().chain(sel.group_exprs());
    if per_group.any(Expr::contains_window) {
        return Err(SqlError::syntax(
            "window functions cannot be combined with GROUP BY or aggregates",
        ));
    }
    let (labels, cols) = expand_items(sel, bindings)?;
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

    let width = bindings.width();
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
        // Representative row: the first row of the group (moved out: each
        // row is in one group, whose aggregates are already computed), or
        // all-NULL for the empty global group.
        let rep = match group.first() {
            Some(&i) => std::mem::take(&mut rows[i]),
            None => Cow::Owned(vec![Value::Null; width]),
        };
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
        let keys: Vec<Vec<Cow<'_, Value>>> = (pairs.iter().enumerate())
            .map(|(row_idx, (src, out))| {
                let aggs: &dyn AggSource = match &agg_sources {
                    Some(sources) => &sources[row_idx],
                    None => &NoAggregates,
                };
                (sort_keys.iter())
                    .map(|key| match key {
                        SortKey::Output(pos) => Ok(Cow::Borrowed(&out[*pos])),
                        SortKey::Expr(e) => eval_ref(e, src, params, aggs),
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
// Subquery pre-execution.
// ---------------------------------------------------------------------------

/// A copy of `expr` with its subqueries replaced by their results (see
/// [`rewrite_subqueries`]).
pub(crate) fn rewrite_expr_subqueries(
    state: &DbState,
    expr: &Expr,
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<Expr> {
    let mut expr = expr.clone();
    rewrite_subqueries(state, &mut expr, params, ctx)?;
    Ok(expr)
}

/// Replace, in place, each subquery node in `expr` by executing it against
/// `state`: a scalar subquery becomes its value, `IN (SELECT …)` an `IN`
/// list, `EXISTS` a truth value.
///
/// Only *uncorrelated* subqueries are supported, matching the era (the web
/// workloads used them for pick-lists). A correlated reference surfaces as an
/// "unknown column" error from the inner query.
fn rewrite_subqueries(
    state: &DbState,
    expr: &mut Expr,
    params: &[Value],
    ctx: &RequestCtx,
) -> SqlResult<()> {
    // The values of a subquery that must yield one column.
    let column = |select: &Select, what: &str| -> SqlResult<Vec<Value>> {
        let rs = run_select(state, select, params, ctx)?;
        if rs.columns.len() != 1 {
            return Err(SqlError::syntax(format!(
                "{what} must return exactly one column"
            )));
        }
        Ok(rs.rows.into_iter().map(|mut r| r.swap_remove(0)).collect())
    };
    *expr = match expr {
        Expr::Subquery(select) => {
            let mut values = column(select, "a scalar subquery")?;
            if values.len() > 1 {
                return Err(SqlError::syntax(format!(
                    "scalar subquery returned {} rows",
                    values.len()
                )));
            }
            Expr::Literal(values.pop().unwrap_or(Value::Null))
        }
        Expr::InSelect {
            expr: tested,
            select,
            negated,
        } => {
            let list = column(select, "an IN subquery")?;
            rewrite_subqueries(state, tested, params, ctx)?;
            Expr::InList {
                expr: std::mem::replace(tested, Box::new(Expr::Literal(Value::Null))),
                list: list.into_iter().map(Expr::Literal).collect(),
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
        _ => return expr.try_for_each_child_mut(|e| rewrite_subqueries(state, e, params, ctx)),
    };
    Ok(())
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

/// `EXPLAIN` for UPDATE and DELETE: `head`, then the plan of the target scan
/// — the access line and `FILTER <where>` of `SELECT * FROM table WHERE …`,
/// which is the scan [`scan_where`] runs.
pub(crate) fn explain_dml(
    state: &DbState,
    head: String,
    table: &str,
    predicate: Option<&Expr>,
    params: &[Value],
) -> SqlResult<Vec<String>> {
    let sel = Select {
        distinct: false,
        items: vec![SelectItem::Wildcard],
        from: Some(TableRef {
            name: table.to_owned(),
            alias: None,
        }),
        joins: Vec::new(),
        where_clause: predicate.cloned(),
        group_by: Vec::new(),
        having: None,
        order_by: Vec::new(),
        limit: None,
        offset: None,
        set_ops: Vec::new(),
    };
    let mut lines = vec![head];
    lines.extend(explain_select(state, &sel, params)?);
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
    let sel_plan = plan::plan_select(state, sel, &bindings, params, opts);
    match &sel.from {
        None => lines.push(format!("{pad}VALUES (table-less SELECT)")),
        Some(base) => {
            if sel.joins.len() >= 2 {
                let mut names = vec![base.effective_name()];
                names.extend(sel.joins.iter().map(|j| j.table.effective_name()));
                lines.push(format!("{pad}JOIN ORDER: {}", names.join(" -> ")));
            }
            push_plan_line(
                lines,
                format!("{pad}{}{}", sel_plan.scans[0].access, est_note(0)),
                actuals,
                OpId::Base,
            );
            for (j, join) in sel.joins.iter().enumerate() {
                let jp = &sel_plan.joins[j];
                let outer = if join.left_outer { "LEFT OUTER " } else { "" };
                let (table, nkeys) = (&join.table.name, jp.keys.len());
                let line = if jp.use_hash {
                    format!(
                        "{pad}HASH {outer}JOIN {table} ({nkeys} key{})",
                        plural(nkeys)
                    )
                } else {
                    let on = if join.on.is_some() {
                        " ON <cond>"
                    } else {
                        " (cross)"
                    };
                    format!("{pad}NESTED LOOP {outer}JOIN {table}{on}")
                };
                let line = format!("{line}{}", est_note(j + 1));
                push_plan_line(lines, line, actuals, OpId::Join(j));
                let access = &sel_plan.scans[j + 1].access;
                if !matches!(access, AccessPath::FullScan { .. }) {
                    push_plan_line(
                        lines,
                        format!("{pad}  {access}"),
                        actuals,
                        OpId::JoinScan(j),
                    );
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
