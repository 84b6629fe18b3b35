//! SELECT planning: where each WHERE conjunct runs, how the one FROM table
//! is read, and top-k sort selection. A SELECT reads one table or none, so
//! the plan is one scan and a tail.
//!
//! * **Access paths** — `ScanPlan::new` decides once, per scan, how the
//!   table's rows are found: a full scan, an index probe with its keys, or
//!   nothing at all when a conjunct can keep no row (a comparison with NULL,
//!   say). The rule needs no statistics: the first conjunct that keeps no
//!   row, or that an index serves and is not negated, picks the path.
//!   `sargable` is the one reader of "column op constant" behind that
//!   choice. The executor, EXPLAIN, the trace plan note and UPDATE target
//!   collection all read the stored `AccessPath`.
//! * **Scan filters** — a WHERE conjunct that names a column filters the
//!   scan, where an index may serve it; one naming no column, or one the
//!   planner cannot classify (an unknown column, an aggregate), runs on the
//!   scanned rows as the residual filter.
//! * **Fold** — an aggregate in the SELECT list or ORDER BY folds the
//!   filtered rows into one row.
//! * **Top-k ORDER BY** — `ORDER BY … LIMIT k [OFFSET o]` keeps a bounded
//!   heap of `k + o` rows instead of sorting the full result.
//!
//! Every candidate row is still checked against the conjuncts that selected
//! it, so plan choices can change performance but never results — the
//! property suite in `tests/planner_equivalence.rs` exercises this.

use crate::ast::{BinOp, ColumnRef, Expr, Select};
use crate::eval::Bindings;
use crate::index::Index;
use crate::like::Pattern;
use crate::schema::TableSchema;
use crate::state::DbState;
use crate::types::{SqlType, Value};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Bound;

/// Which optimizations the executor may use for one SELECT.
///
/// The default enables everything (the production configuration);
/// [`PlanOptions::baseline`] disables everything, reproducing the naive
/// executor (full scans, full sorts). Benches and the equivalence property
/// suite run the same query under both and compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// Use index probes for scans.
    pub index_paths: bool,
    /// Use a bounded heap for `ORDER BY … LIMIT k`.
    pub topk: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            index_paths: true,
            topk: true,
        }
    }
}

impl PlanOptions {
    /// Everything off: full scans, full sorts. This is the reference
    /// executor the optimized plans are checked against.
    pub fn baseline() -> PlanOptions {
        PlanOptions {
            index_paths: false,
            topk: false,
        }
    }
}

/// Per-thread execution counters, accumulated by the executor.
///
/// Tests and benches call [`reset_thread_stats`] before a query and
/// [`thread_stats`] after to assert plan behavior (e.g. that an index probe
/// does not scan the whole heap). The executor only ever
/// adds; it never resets.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// Rows fetched from heaps (probe candidates + full-scan rows).
    pub rows_scanned: u64,
}

thread_local! {
    static STATS: RefCell<PlanStats> = const { RefCell::new(PlanStats { rows_scanned: 0 }) };
}

/// Zero this thread's [`PlanStats`].
pub fn reset_thread_stats() {
    STATS.with(|s| *s.borrow_mut() = PlanStats::default());
}

/// A copy of this thread's [`PlanStats`].
pub fn thread_stats() -> PlanStats {
    STATS.with(|s| *s.borrow())
}

/// Mutate this thread's stats (executor-internal).
pub(crate) fn record(f: impl FnOnce(&mut PlanStats)) {
    STATS.with(|s| f(&mut s.borrow_mut()));
}

/// The index keys a pushed conjunct selects.
#[derive(Debug)]
pub(crate) enum Keys {
    /// `col = v`, or `col LIKE 'v'` with no wildcard in the pattern.
    Eq(Value),
    /// `col <, <=, >, >= v`.
    Range(Bound<Value>, Bound<Value>),
    /// `col LIKE 'p%…'`: text keys starting with the literal prefix `p`.
    Prefix(String),
    /// `col IN (v, …)`, its NULL items dropped (they never match).
    In(Vec<Value>),
}

/// A scan-filter conjunct read as "column op constant".
#[derive(Debug)]
pub(crate) struct Sargable<'a> {
    /// The restricted column, as written.
    pub column: &'a ColumnRef,
    /// Its ordinal in the table's schema.
    pub ordinal: usize,
    /// The rows the comparison keeps, as index keys; `None` when it keeps
    /// no row (a comparison with NULL, an IN list with no non-NULL item).
    pub keys: Option<Keys>,
    /// `<>`, `NOT IN`, `NOT LIKE`: the conjunct keeps the rows
    /// `keys` does not (when there are keys); no index serves them.
    pub negated: bool,
}

/// The column `expr` names if it is a bare reference to the table `table`.
fn column_of<'a>(expr: &'a Expr, table: &str) -> Option<&'a ColumnRef> {
    match expr {
        Expr::Column(c)
            if c.table
                .as_ref()
                .is_none_or(|t| t.eq_ignore_ascii_case(table)) =>
        {
            Some(c)
        }
        _ => None,
    }
}

/// Read `conj` as "column op constant" over `table`: the one normalizer
/// behind the access-path choice. Constant operands are folded with
/// [`crate::exec::const_value`], so `b = 2 - 1` reads as `b = 1`. `None`
/// when the conjunct is not such a comparison.
pub(crate) fn sargable<'a>(
    conj: &'a Expr,
    table: &str,
    schema: &TableSchema,
    params: &[Value],
) -> Option<Sargable<'a>> {
    let column = |e: &'a Expr| {
        let c = column_of(e, table)?;
        Some((c, schema.column_index(&c.column)?))
    };
    let konst = |e: &Expr| crate::exec::const_value(e, params);
    let (col, keys, negated) = match conj {
        Expr::Binary { op, lhs, rhs } => {
            // Normalize to "column op constant", flipping the operator when
            // the column is on the right.
            let (col, v, op) = match column(lhs).zip(konst(rhs)) {
                Some((col, v)) => (col, v, *op),
                None => {
                    let flipped = match op {
                        BinOp::Lt => BinOp::Gt,
                        BinOp::Le => BinOp::Ge,
                        BinOp::Gt => BinOp::Lt,
                        BinOp::Ge => BinOp::Le,
                        other => *other,
                    };
                    (column(rhs)?, konst(lhs)?, flipped)
                }
            };
            let null = v.is_null(); // col op NULL is never TRUE
            let keys = match op {
                BinOp::Eq | BinOp::Ne => Keys::Eq(v),
                BinOp::Lt => Keys::Range(Bound::Unbounded, Bound::Excluded(v)),
                BinOp::Le => Keys::Range(Bound::Unbounded, Bound::Included(v)),
                BinOp::Gt => Keys::Range(Bound::Excluded(v), Bound::Unbounded),
                BinOp::Ge => Keys::Range(Bound::Included(v), Bound::Unbounded),
                _ => return None,
            };
            (col, (!null).then_some(keys), matches!(op, BinOp::Ne))
        }
        Expr::Like {
            expr,
            pattern,
            escape,
            negated,
            ..
        } => {
            // Only text keys can match a pattern: on any other column the
            // index holds values LIKE compares by their display text.
            let col = column(expr).filter(|c| schema.columns[c.1].ty == SqlType::Varchar)?;
            let keys = match konst(pattern)? {
                Value::Null => None,
                Value::Text(p) => {
                    let p = Pattern::new(&p, *escape);
                    let prefix = p.literal_prefix();
                    if p.is_exact() {
                        Some(Keys::Eq(Value::Text(prefix)))
                    } else if prefix.is_empty() {
                        return None; // '%…' gives an index nothing to narrow
                    } else {
                        Some(Keys::Prefix(prefix))
                    }
                }
                _ => return None,
            };
            (col, keys, *negated)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let col = column(expr)?;
            let mut values = Vec::with_capacity(list.len());
            let mut saw_null = false;
            for item in list {
                match konst(item)? {
                    Value::Null => saw_null = true,
                    v => values.push(v),
                }
            }
            // `x IN (NULL)` keeps nothing, and so does `x NOT IN (…, NULL, …)`.
            let empty = if *negated {
                saw_null
            } else {
                values.is_empty()
            };
            (col, (!empty).then_some(Keys::In(values)), *negated)
        }
        _ => return None,
    };
    Some(Sargable {
        column: col.0,
        ordinal: col.1,
        keys,
        negated,
    })
}

/// How one scan finds its candidate rows: decided once, by
/// [`ScanPlan::new`], and read by the executor, EXPLAIN and the trace plan
/// note alike, all printing it through this type's `Display`.
#[derive(Debug)]
pub(crate) enum AccessPath<'a> {
    /// Read every live row of `table`.
    FullScan { table: &'a str, rows: usize },
    /// A scan-filter conjunct on `column` no row can pass: read nothing.
    Empty {
        table: &'a str,
        column: &'a ColumnRef,
    },
    /// Read the rows `index` yields for `keys` on `column`.
    Probe {
        index: &'a Index,
        column: &'a ColumnRef,
        keys: Keys,
    },
}

impl fmt::Display for AccessPath<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessPath::FullScan { table, rows } => write!(f, "FULL SCAN {table} ({rows} rows)"),
            AccessPath::Empty { table, column } => {
                write!(f, "EMPTY SCAN {table} ({column} matches no row)")
            }
            AccessPath::Probe {
                index,
                column,
                keys,
            } => {
                let (kind, detail) = match keys {
                    Keys::Eq(_) => ("equality", String::new()),
                    Keys::Range(..) => ("range", String::new()),
                    Keys::Prefix(p) => ("prefix", format!(" LIKE '{p}%…'")),
                    Keys::In(values) => ("IN-list", format!(", {} keys", values.len())),
                };
                write!(f, "INDEX {kind} PROBE {} ({column}{detail})", index.name)
            }
        }
    }
}

/// One table scan: how its rows are found, and the conjuncts every candidate
/// row is checked against.
#[derive(Debug)]
pub(crate) struct ScanPlan<'a> {
    /// Conjuncts referencing only this table (evaluated with table-local
    /// bindings against the bare heap row).
    pub filters: Vec<&'a Expr>,
    /// How the candidate rows are found.
    pub access: AccessPath<'a>,
}

impl<'a> ScanPlan<'a> {
    /// Decide how `table`'s rows are found for `filters`. The first conjunct
    /// that keeps no row, or that an index serves and is not negated, picks
    /// the path; otherwise the heap is walked. With `index_paths` off every
    /// scan is the reference full scan.
    pub(crate) fn new(
        state: &'a DbState,
        table: &'a str,
        filters: Vec<&'a Expr>,
        params: &[Value],
        opts: &PlanOptions,
    ) -> ScanPlan<'a> {
        // Unknown tables error in the FROM-clause scope, before planning.
        let data = state.table(table).ok();
        let choose = |conj: &&'a Expr| {
            let data = data?;
            let s = sargable(conj, table, &data.schema, params)?;
            if s.keys.is_none() {
                return Some(AccessPath::Empty {
                    table,
                    column: s.column,
                });
            }
            if s.negated {
                return None;
            }
            Some(AccessPath::Probe {
                index: state.index_on(table, s.ordinal)?,
                column: s.column,
                keys: s.keys?,
            })
        };
        let chosen = if opts.index_paths {
            filters.iter().find_map(choose)
        } else {
            None
        };
        let access = chosen.unwrap_or(AccessPath::FullScan {
            table,
            rows: data.map_or(0, |d| d.heap.len()),
        });
        ScanPlan { filters, access }
    }
}

/// A full SELECT plan: how the table is read and where each WHERE conjunct
/// runs. Borrowed from the AST.
#[derive(Debug, Default)]
pub(crate) struct SelectPlan<'a> {
    /// The scan of the FROM table; `None` for a table-less SELECT.
    pub scan: Option<ScanPlan<'a>>,
    /// WHERE conjuncts evaluated on the scanned rows: those naming no column
    /// and anything unclassifiable (all of them when there is no table).
    pub residual: Vec<&'a Expr>,
    /// `ORDER BY` bound: keep only the best `offset + limit` rows.
    pub topk: Option<usize>,
    /// An aggregate in the SELECT list or ORDER BY folds the filtered rows
    /// into one row.
    pub aggregate: bool,
}

/// Split a conjunction into its AND-ed parts.
pub(crate) fn flatten_and<'a>(expr: &'a Expr, out: &mut Vec<&'a Expr>) {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            flatten_and(lhs, out);
            flatten_and(rhs, out);
        }
        other => out.push(other),
    }
}

/// Does `expr` name a column of the scope? `None` when the expression
/// cannot be classified (an unresolvable column, an aggregate).
pub(crate) fn names_column(expr: &Expr, bindings: &Bindings) -> Option<bool> {
    match expr {
        Expr::Column(c) => bindings.resolve(c).ok().map(|_| true),
        // Aggregates need group context: refuse to classify them.
        Expr::Agg { .. } => None,
        _ => {
            let mut named = false;
            let unclassified = expr.any_child(|c| match names_column(c, bindings) {
                Some(n) => {
                    named |= n;
                    false
                }
                None => true,
            });
            (!unclassified).then_some(named)
        }
    }
}

/// Place every WHERE conjunct of `sel` and decide how its table is read: a
/// conjunct naming a column filters the scan, the rest form the residual.
/// `bindings` is the FROM table's scope.
pub(crate) fn plan_select<'a>(
    state: &'a DbState,
    sel: &'a Select,
    bindings: &Bindings,
    params: &[Value],
    opts: &PlanOptions,
) -> SelectPlan<'a> {
    let mut conjs = Vec::new();
    if let Some(w) = &sel.where_clause {
        flatten_and(w, &mut conjs);
    }
    let mut plan = SelectPlan {
        topk: topk_bound(sel, opts),
        aggregate: sel.aggregate_exprs().any(Expr::contains_aggregate),
        ..SelectPlan::default()
    };
    let Some(table) = &sel.from else {
        plan.residual = conjs;
        return plan;
    };
    let (filters, residual) =
        (conjs.into_iter()).partition(|c: &&Expr| names_column(c, bindings) == Some(true));
    plan.residual = residual;
    plan.scan = Some(ScanPlan::new(state, table, filters, params, opts));
    plan
}

/// The ORDER BY bound of `sel`: keep only the best `offset + limit` rows.
fn topk_bound(sel: &Select, opts: &PlanOptions) -> Option<usize> {
    if opts.topk && !sel.order_by.is_empty() {
        sel.limit.map(|l| l.saturating_add(sel.offset.unwrap_or(0)))
    } else {
        None
    }
}

/// The `k` smallest of `0..n` under `cmp`, returned in ascending `cmp`
/// order, via a bounded max-heap — O(n log k) and O(k) memory.
///
/// `cmp` must be a total order; the executor passes "sort keys, then
/// original index", which makes the result exactly equal to a stable full
/// sort followed by `take(k)`.
pub(crate) fn top_k_indices(
    n: usize,
    k: usize,
    cmp: &dyn Fn(usize, usize) -> Ordering,
) -> Vec<usize> {
    if k == 0 {
        return Vec::new();
    }
    // `heap` is a max-heap: heap[0] is the worst of the current best-k.
    let mut heap: Vec<usize> = Vec::with_capacity(k);
    let sift_up = |heap: &mut Vec<usize>, mut i: usize| {
        while i > 0 {
            let parent = (i - 1) / 2;
            if cmp(heap[i], heap[parent]) == Ordering::Greater {
                heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    };
    let sift_down = |heap: &mut Vec<usize>| {
        let len = heap.len();
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < len && cmp(heap[l], heap[largest]) == Ordering::Greater {
                largest = l;
            }
            if r < len && cmp(heap[r], heap[largest]) == Ordering::Greater {
                largest = r;
            }
            if largest == i {
                break;
            }
            heap.swap(i, largest);
            i = largest;
        }
    };
    for i in 0..n {
        if heap.len() < k {
            heap.push(i);
            let last = heap.len() - 1;
            sift_up(&mut heap, last);
        } else if cmp(i, heap[0]) == Ordering::Less {
            heap[0] = i;
            sift_down(&mut heap);
        }
    }
    heap.sort_by(|&a, &b| cmp(a, b));
    heap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse;

    /// A catalog without the queried tables: every scan plans as a full scan.
    fn no_tables() -> &'static DbState {
        static EMPTY: std::sync::OnceLock<DbState> = std::sync::OnceLock::new();
        EMPTY.get_or_init(DbState::default)
    }

    fn select(sql: &str) -> Select {
        match parse(sql).unwrap() {
            Statement::Select(s) => s,
            _ => panic!("not a select"),
        }
    }

    #[test]
    fn conjuncts_naming_a_column_filter_the_scan() {
        let b = Bindings::single("a", vec!["x".into(), "y".into()]);
        let sel = select("SELECT * FROM a WHERE a.y = 1 AND x + 1 > 2 AND 1 = 1 AND z = 3");
        let mut conjs = Vec::new();
        flatten_and(sel.where_clause.as_ref().unwrap(), &mut conjs);
        let named: Vec<_> = conjs.iter().map(|c| names_column(c, &b)).collect();
        assert_eq!(named, [Some(true), Some(true), Some(false), None]);
        for opts in [PlanOptions::default(), PlanOptions::baseline()] {
            let plan = plan_select(no_tables(), &sel, &b, &[], &opts);
            assert_eq!(plan.scan.unwrap().filters.len(), 2); // a.y = 1, x + 1 > 2
            assert_eq!(plan.residual.len(), 2); // 1 = 1, z = 3 (unknown)
        }
        // A table-less SELECT has no scan: every conjunct is residual.
        let sel = select("SELECT 1 WHERE 1 = 1");
        let plan = plan_select(
            no_tables(),
            &sel,
            &Bindings::empty(),
            &[],
            &PlanOptions::default(),
        );
        assert!(plan.scan.is_none());
        assert_eq!(plan.residual.len(), 1);
    }

    #[test]
    fn topk_bound_includes_offset() {
        let b = Bindings::single("a", vec!["x".into()]);
        let sel = select("SELECT x FROM a ORDER BY x LIMIT 10 OFFSET 5");
        let plan = plan_select(no_tables(), &sel, &b, &[], &PlanOptions::default());
        assert_eq!(plan.topk, Some(15));
        let plan = plan_select(no_tables(), &sel, &b, &[], &PlanOptions::baseline());
        assert_eq!(plan.topk, None);
    }

    #[test]
    fn top_k_matches_full_sort() {
        let data = [5, 3, 9, 1, 3, 7, 0, 3, 8, 2];
        let cmp = |a: usize, b: usize| data[a].cmp(&data[b]).then(a.cmp(&b));
        for k in 0..=data.len() + 2 {
            let got = top_k_indices(data.len(), k, &cmp);
            let mut want: Vec<usize> = (0..data.len()).collect();
            want.sort_by(|&a, &b| cmp(a, b));
            want.truncate(k);
            assert_eq!(got, want, "k={k}");
        }
    }
}
