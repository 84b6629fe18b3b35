//! Cost-aware SELECT planning: conjunct classification, access paths, join
//! strategy and top-k sort selection.
//!
//! The planner is deliberately small: join order is [`crate::cost`]'s
//! rewrite, done before planning. What it does decide, per query:
//!
//! * **Access paths** — `ScanPlan::new` decides once, per scan, how the
//!   table's rows are found: a full scan, an index probe with its keys, or
//!   nothing at all when a pushed conjunct can keep no row (a comparison
//!   with NULL, say). `sargable` is the one reader of "column op constant"
//!   behind that choice and behind the cost model's selectivity estimates.
//!   The executor, EXPLAIN, the trace plan note and UPDATE/DELETE target
//!   collection all read the stored `AccessPath`.
//! * **Predicate pushdown** — joins are inner joins, so each ON and WHERE
//!   conjunct is placed by one rule: classified by the set of tables it
//!   references, it is attached to the earliest point in the pipeline where
//!   all of those tables are bound — a table's scan, a join's per-pair
//!   filters, or (for a WHERE conjunct naming no table) the residual tail.
//! * **Hash equi-joins** — `l = r` conjuncts where `l` references only
//!   already-bound tables and `r` only the joined table become hash-join
//!   keys; everything else at a join is a per-pair filter evaluated by
//!   whichever join strategy runs.
//! * **Top-k ORDER BY** — `ORDER BY … LIMIT k [OFFSET o]` keeps a bounded
//!   heap of `k + o` rows instead of sorting the full result.
//!
//! Classification is conservative: any conjunct the planner cannot fully
//! resolve (ambiguous columns, aggregates, >64 tables) stays home — at its
//! own join for ON, in the residual tail for WHERE — where the executor
//! applies it exactly as the pre-planner code did. Plan choices can
//! therefore change performance but never results — the property suite in
//! `tests/planner_equivalence.rs` exercises this.

use crate::ast::{BinOp, ColumnRef, Expr, Select, TableRef};
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
/// [`PlanOptions::baseline`] disables
/// everything, reproducing the naive pre-planner executor (full scans,
/// nested-loop joins, full sorts). Benches and the equivalence property
/// suite run the same query under both and compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// Use hash joins for equi-join conjuncts.
    pub hash_join: bool,
    /// Push WHERE/ON conjuncts below joins.
    pub pushdown: bool,
    /// Use index probes for scans.
    pub index_paths: bool,
    /// Use a bounded heap for `ORDER BY … LIMIT k`.
    pub topk: bool,
    /// Reorder multi-way inner joins by the statistics cost model.
    pub reorder: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            hash_join: true,
            pushdown: true,
            index_paths: true,
            topk: true,
            reorder: true,
        }
    }
}

impl PlanOptions {
    /// Everything off: full scans, nested-loop joins, full sorts. This is
    /// the reference executor the optimized plans are checked against.
    pub fn baseline() -> PlanOptions {
        PlanOptions {
            hash_join: false,
            pushdown: false,
            index_paths: false,
            topk: false,
            reorder: false,
        }
    }
}

/// Per-thread execution counters, accumulated by the executor.
///
/// Tests and benches call [`reset_thread_stats`] before a query and
/// [`thread_stats`] after to assert plan behavior (e.g. that a join on an
/// indexed base no longer scans the whole heap). The executor only ever
/// adds; it never resets, so a compound SELECT's branches accumulate into
/// the same counters.
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
    /// `col <, <=, >, >= v`, or `col BETWEEN lo AND hi`.
    Range(Bound<Value>, Bound<Value>),
    /// `col LIKE 'p%…'`: text keys starting with the literal prefix `p`.
    Prefix(String),
    /// `col IN (v, …)`, its NULL items dropped (they never match).
    In(Vec<Value>),
}

/// A pushed conjunct read as "column op constant".
#[derive(Debug)]
pub(crate) struct Sargable<'a> {
    /// The restricted column, as written.
    pub column: &'a ColumnRef,
    /// Its ordinal in the table's schema.
    pub ordinal: usize,
    /// The rows the comparison keeps, as index keys; `None` when it keeps
    /// no row (a comparison with NULL, an IN list with no non-NULL item, an
    /// inverted BETWEEN).
    pub keys: Option<Keys>,
    /// `<>`, `NOT IN`, `NOT BETWEEN`, `NOT LIKE`: the conjunct keeps the rows
    /// `keys` does not (when there are keys). The cost model estimates
    /// these; no index serves them.
    pub negated: bool,
}

/// The column `expr` names if it is a bare reference to the table `effective`.
pub(crate) fn column_of<'a>(expr: &'a Expr, effective: &str) -> Option<&'a ColumnRef> {
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

/// Read `conj` as "column op constant" over the table `effective` names:
/// the one normalizer behind both the access-path choice and the cost
/// model's selectivity estimates. Constant operands are folded with
/// [`crate::exec::const_value`], so `b = 'k' || '1'` reads as `b = 'k1'`.
/// `None` when the conjunct is not such a comparison.
pub(crate) fn sargable<'a>(
    conj: &'a Expr,
    effective: &str,
    schema: &TableSchema,
    params: &[Value],
) -> Option<Sargable<'a>> {
    let column = |e: &'a Expr| {
        let c = column_of(e, effective)?;
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
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let col = column(expr)?;
            let (lo, hi) = (konst(lo)?, konst(hi)?);
            // NULL or inverted bounds keep no row; negated, they keep some.
            let empty = lo.is_null() || hi.is_null() || lo.order_key(&hi).is_gt();
            if empty && *negated {
                return None;
            }
            let range = Keys::Range(Bound::Included(lo), Bound::Included(hi));
            (col, (!empty).then_some(range), *negated)
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
    /// A pushed conjunct on `column` no row can pass: read nothing.
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
    /// that keeps no row, or that an index serves and the cost model thinks
    /// selective enough to probe, picks the path; otherwise the heap is
    /// walked. With `index_paths` off every scan is the reference full scan.
    pub(crate) fn new(
        state: &'a DbState,
        table: &'a TableRef,
        filters: Vec<&'a Expr>,
        params: &[Value],
        opts: &PlanOptions,
    ) -> ScanPlan<'a> {
        // Unknown tables error in the FROM-clause scope, before planning.
        let data = state.table(&table.name).ok();
        let choose = |conj: &&'a Expr| {
            let data = data?;
            let s = sargable(conj, table.effective_name(), &data.schema, params)?;
            if s.keys.is_none() {
                return Some(AccessPath::Empty {
                    table: &table.name,
                    column: s.column,
                });
            }
            let index = state.index_on(&table.name, s.ordinal)?;
            if s.negated || !crate::cost::probe_worthwhile(data, &s) {
                return None;
            }
            Some(AccessPath::Probe {
                index,
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
            table: &table.name,
            rows: data.map_or(0, |d| d.heap.len()),
        });
        ScanPlan { filters, access }
    }
}

/// One join step.
#[derive(Debug, Default)]
pub(crate) struct JoinPlan<'a> {
    /// Equi-join keys as `(left-side, right-side)` expression pairs. The
    /// left side references only already-bound tables; the right side only
    /// the joined table.
    pub keys: Vec<(&'a Expr, &'a Expr)>,
    /// Conjuncts every candidate pair is checked against.
    pub filters: Vec<&'a Expr>,
    /// Whether the executor should run this step as a hash join.
    pub use_hash: bool,
}

/// A full SELECT plan: where each conjunct runs, how each table is read and
/// which join strategy each step uses. Borrowed from the AST.
#[derive(Debug, Default)]
pub(crate) struct SelectPlan<'a> {
    /// One scan per FROM-clause table: the base table's first, then the
    /// table of each `sel.joins` element, in order.
    pub scans: Vec<ScanPlan<'a>>,
    /// One entry per `sel.joins` element, in order.
    pub joins: Vec<JoinPlan<'a>>,
    /// WHERE conjuncts evaluated on fully-joined rows (the pre-planner
    /// behavior; also the home of anything unclassifiable).
    pub residual: Vec<&'a Expr>,
    /// How many WHERE conjuncts were placed below the residual tail.
    pub pushed_where: usize,
    /// `ORDER BY` bound: keep only the best `offset + limit` rows.
    pub topk: Option<usize>,
    /// The query runs through grouping: GROUP BY, or an aggregate in the
    /// SELECT list, HAVING or ORDER BY.
    pub grouped: bool,
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

/// Bitmask of the tables (by FROM-clause position) `expr` references, or
/// `None` when the expression cannot be classified (unresolvable columns,
/// aggregates, >64 tables).
pub(crate) fn conjunct_mask(expr: &Expr, bindings: &Bindings) -> Option<u64> {
    fn walk(e: &Expr, bindings: &Bindings, mask: &mut u64) -> bool {
        match e {
            Expr::Column(c) => {
                let Ok(pos) = bindings.resolve(c) else {
                    return false;
                };
                let Some(t) = bindings.table_of_position(pos) else {
                    return false;
                };
                if t >= 64 {
                    return false;
                }
                *mask |= 1 << t;
                true
            }
            // Aggregates need group context: refuse to classify them.
            Expr::Agg { .. } => false,
            _ => !e.any_child(|c| !walk(c, bindings, mask)),
        }
    }
    let mut mask = 0u64;
    walk(expr, bindings, &mut mask).then_some(mask)
}

/// If `conj` is `l = r` with `l` over tables in `left_bits` and `r` over the
/// table in `right_bit` (either way round), return the `(left, right)` pair.
fn split_equi<'a>(
    conj: &'a Expr,
    bindings: &Bindings,
    left_bits: u64,
    right_bit: u64,
) -> Option<(&'a Expr, &'a Expr)> {
    let Expr::Binary {
        op: BinOp::Eq,
        lhs,
        rhs,
    } = conj
    else {
        return None;
    };
    let ml = conjunct_mask(lhs, bindings)?;
    let mr = conjunct_mask(rhs, bindings)?;
    if ml != 0 && ml & !left_bits == 0 && mr != 0 && mr & !right_bit == 0 {
        Some((lhs, rhs))
    } else if mr != 0 && mr & !left_bits == 0 && ml != 0 && ml & !right_bit == 0 {
        Some((rhs, lhs))
    } else {
        None
    }
}

/// Classify every ON and WHERE conjunct of `sel`, decide each table's access
/// path and pick join strategies.
///
/// Joins are inner joins, so an ON conjunct means what a WHERE conjunct
/// does and both are placed by one rule. Under pushdown a conjunct naming
/// one table filters that table's scan, and one naming several runs at the
/// join that binds the last of them, as a hash key when it is an equi
/// conjunct. Anything else stays home: an ON conjunct at its own join, a
/// WHERE conjunct in the residual tail. Without pushdown every conjunct
/// stays home.
///
/// `bindings` must be the full FROM-clause scope (base + all joins).
pub(crate) fn plan_select<'a>(
    state: &'a DbState,
    sel: &'a Select,
    bindings: &Bindings,
    params: &[Value],
    opts: &PlanOptions,
) -> SelectPlan<'a> {
    let mut plan = SelectPlan {
        joins: sel.joins.iter().map(|_| JoinPlan::default()).collect(),
        ..SelectPlan::default()
    };
    plan.topk = topk_bound(sel, opts);
    plan.grouped = !sel.group_by.is_empty() || sel.group_exprs().any(Expr::contains_aggregate);

    // Each conjunct with its home: the join whose ON it is in, or `None`
    // for WHERE. An ON names only tables bound through its join (checked
    // per statement by the executor), so the full scope classifies it too;
    // a name that scope finds ambiguous leaves the conjunct home.
    let mut conjs: Vec<(&Expr, Option<usize>)> = Vec::new();
    let mut flat = Vec::new();
    for (j, join) in sel.joins.iter().enumerate() {
        if let Some(on) = &join.on {
            flatten_and(on, &mut flat);
        }
        conjs.extend(flat.drain(..).map(|c| (c, Some(j))));
    }
    if let Some(w) = &sel.where_clause {
        flatten_and(w, &mut flat);
    }
    conjs.extend(flat.drain(..).map(|c| (c, None)));

    let Some(base) = &sel.from else {
        plan.residual = conjs.into_iter().map(|(c, _)| c).collect();
        return plan;
    };
    // Pushed single-table conjuncts, per FROM-clause table.
    let mut scan_filters: Vec<Vec<&Expr>> = vec![Vec::new(); sel.joins.len() + 1];
    for (conj, home) in conjs {
        let mask = conjunct_mask(conj, bindings).filter(|_| opts.pushdown);
        let at = match mask {
            Some(m) if m.count_ones() == 1 => {
                scan_filters[m.trailing_zeros() as usize].push(conj);
                plan.pushed_where += usize::from(home.is_none());
                continue;
            }
            // The join that binds the last table named.
            Some(m) if m != 0 => Some(62 - m.leading_zeros() as usize),
            _ => home,
        };
        let Some(j) = at else {
            plan.residual.push(conj);
            continue;
        };
        plan.pushed_where += usize::from(home.is_none());
        let right_bit = 1u64 << (j + 1).min(63);
        let split = opts
            .hash_join
            .then(|| split_equi(conj, bindings, right_bit - 1, right_bit));
        match split.flatten() {
            Some(pair) => plan.joins[j].keys.push(pair),
            None => plan.joins[j].filters.push(conj),
        }
    }
    for jp in &mut plan.joins {
        jp.use_hash = !jp.keys.is_empty();
    }
    let tables = std::iter::once(base).chain(sel.joins.iter().map(|j| &j.table));
    plan.scans = (tables.zip(scan_filters))
        .map(|(table, filters)| ScanPlan::new(state, table, filters, params, opts))
        .collect();
    plan
}

/// The ORDER BY bound of `sel` (a single SELECT or a compound's hoisted
/// tail): keep only the best `offset + limit` rows.
pub(crate) fn topk_bound(sel: &Select, opts: &PlanOptions) -> Option<usize> {
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

    fn two_table_bindings() -> Bindings {
        let mut b = Bindings::single("a", vec!["x".into(), "y".into()]);
        b.push_table("b", vec!["x".into(), "z".into()]);
        b
    }

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
    fn masks_classify_by_table() {
        let b = two_table_bindings();
        let sel = select("SELECT * FROM a JOIN b ON a.x = b.x WHERE a.y = 1 AND b.z > 2 AND 1 = 1");
        let mut conjs = Vec::new();
        flatten_and(sel.where_clause.as_ref().unwrap(), &mut conjs);
        assert_eq!(conjunct_mask(conjs[0], &b), Some(0b01));
        assert_eq!(conjunct_mask(conjs[1], &b), Some(0b10));
        assert_eq!(conjunct_mask(conjs[2], &b), Some(0));
        assert_eq!(
            conjunct_mask(sel.joins[0].on.as_ref().unwrap(), &b),
            Some(0b11)
        );
    }

    #[test]
    fn plan_pushes_filters_and_extracts_keys() {
        let b = two_table_bindings();
        let sel = select(
            "SELECT * FROM a JOIN b ON a.x = b.x AND b.z > 2 AND a.y < 9 \
             WHERE a.y = 1 AND b.z < 100 AND a.x + b.z = 5",
        );
        let plan = plan_select(no_tables(), &sel, &b, &[], &PlanOptions::default());
        assert_eq!(plan.joins[0].keys.len(), 1);
        assert!(plan.joins[0].use_hash);
        assert_eq!(plan.scans[1].filters.len(), 2); // b.z > 2, b.z < 100
        assert_eq!(plan.scans[0].filters.len(), 2); // a.y < 9, a.y = 1
        assert_eq!(plan.joins[0].filters.len(), 1); // a.x + b.z = 5 (non-equi)
        assert!(plan.residual.is_empty());
        assert_eq!(plan.pushed_where, 3);
        // Without pushdown each ON conjunct filters pairs at its join.
        let opts = PlanOptions {
            pushdown: false,
            ..PlanOptions::default()
        };
        let plan = plan_select(no_tables(), &sel, &b, &[], &opts);
        assert_eq!(plan.joins[0].keys.len(), 1);
        assert_eq!(plan.joins[0].filters.len(), 2); // b.z > 2, a.y < 9
        assert_eq!(plan.residual.len(), 3);
    }

    #[test]
    fn baseline_plan_keeps_everything_residual() {
        let b = two_table_bindings();
        let sel = select("SELECT * FROM a JOIN b ON a.x = b.x WHERE a.y = 1");
        let plan = plan_select(no_tables(), &sel, &b, &[], &PlanOptions::baseline());
        assert!(!plan.joins[0].use_hash);
        assert!(plan.joins[0].keys.is_empty());
        assert_eq!(plan.joins[0].filters.len(), 1);
        assert_eq!(plan.residual.len(), 1);
        assert_eq!(plan.pushed_where, 0);
    }

    #[test]
    fn where_equi_conjunct_becomes_hash_key_for_inner_join() {
        let b = two_table_bindings();
        let sel = select("SELECT * FROM a JOIN b WHERE a.x = b.x");
        let plan = plan_select(no_tables(), &sel, &b, &[], &PlanOptions::default());
        assert!(plan.joins[0].use_hash);
        assert_eq!(plan.joins[0].keys.len(), 1);
        assert!(plan.residual.is_empty());
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
