//! Cost-aware SELECT planning: conjunct classification, join strategy and
//! top-k sort selection.
//!
//! The planner is deliberately small: it never reorders joins and it never
//! estimates cardinalities beyond "build the hash table on the smaller side".
//! What it does decide, per query:
//!
//! * **Predicate pushdown** — each WHERE conjunct is classified by the set of
//!   tables it references and attached to the earliest point in the pipeline
//!   where all of those tables are bound: the base scan, a joined table's
//!   scan, a join's post-filter, or the residual tail. Conjuncts over the
//!   nullable side of a LEFT OUTER JOIN are never pushed *below* that join
//!   (they become post-filters), which preserves outer-join semantics.
//! * **Hash equi-joins** — `l = r` conjuncts in ON (or WHERE, for inner
//!   joins) where `l` references only already-bound tables and `r` only the
//!   joined table become hash-join keys; everything else stays a per-pair
//!   residual predicate evaluated by whichever join strategy runs.
//! * **Top-k ORDER BY** — `ORDER BY … LIMIT k [OFFSET o]` keeps a bounded
//!   heap of `k + o` rows instead of sorting the full result.
//!
//! Classification is conservative: any conjunct the planner cannot fully
//! resolve (unknown columns, aggregates, unrewritten subqueries, >64 tables)
//! drops to the residual tail, where the executor applies it exactly as the
//! pre-planner code did. Plan choices can therefore change performance but
//! never results — the property suite in `tests/planner_equivalence.rs`
//! exercises this.

use crate::ast::{BinOp, Expr, Select};
use crate::eval::Bindings;
use std::cell::RefCell;
use std::cmp::Ordering;

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
/// adds; it never resets, so recursive subquery execution accumulates into
/// the same counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// Rows fetched from heaps (probe candidates + full-scan rows).
    pub rows_scanned: u64,
    /// Join steps executed with the hash strategy.
    pub hash_joins: u64,
    /// Join steps executed with the nested-loop strategy.
    pub nested_joins: u64,
    /// WHERE conjuncts placed below the residual tail of a join query.
    pub pushed_conjuncts: u64,
    /// Sorts satisfied by a bounded top-k heap.
    pub topk_sorts: u64,
}

thread_local! {
    static STATS: RefCell<PlanStats> = const { RefCell::new(PlanStats {
        rows_scanned: 0,
        hash_joins: 0,
        nested_joins: 0,
        pushed_conjuncts: 0,
        topk_sorts: 0,
    }) };
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

/// One table scan: the conjuncts to evaluate per candidate row. The executor
/// additionally tries an index probe over these conjuncts.
#[derive(Debug, Default)]
pub(crate) struct ScanPlan<'a> {
    /// Conjuncts referencing only this table (evaluated with table-local
    /// bindings against the bare heap row).
    pub filters: Vec<&'a Expr>,
}

/// One join step.
#[derive(Debug, Default)]
pub(crate) struct JoinPlan<'a> {
    /// The joined table's scan (pre-filtered by pushed conjuncts).
    pub scan: ScanPlan<'a>,
    /// Equi-join keys as `(left-side, right-side)` expression pairs. The
    /// left side references only already-bound tables; the right side only
    /// the joined table.
    pub keys: Vec<(&'a Expr, &'a Expr)>,
    /// Per-pair predicates: non-equi ON conjuncts, plus — for LEFT OUTER —
    /// every ON conjunct that could not be pushed to the right scan.
    pub residual: Vec<&'a Expr>,
    /// Inner joins only: ON conjuncts over already-bound tables, applied to
    /// the left side once before pairing.
    pub left_filters: Vec<&'a Expr>,
    /// WHERE conjuncts applied to the combined rows right after this join
    /// (the earliest sound point for predicates over a LEFT OUTER side, or
    /// over multiple tables).
    pub post_filters: Vec<&'a Expr>,
    /// Whether the executor should run this step as a hash join.
    pub use_hash: bool,
}

/// A full SELECT plan: where each conjunct runs and which join strategy each
/// step uses. Borrowed from the (possibly subquery-rewritten) AST.
#[derive(Debug, Default)]
pub(crate) struct SelectPlan<'a> {
    /// The base table scan.
    pub base: ScanPlan<'a>,
    /// One entry per `sel.joins` element, in order.
    pub joins: Vec<JoinPlan<'a>>,
    /// WHERE conjuncts evaluated on fully-joined rows (the pre-planner
    /// behavior; also the home of anything unclassifiable).
    pub residual: Vec<&'a Expr>,
    /// How many WHERE conjuncts were placed below the residual tail.
    pub pushed_where: usize,
    /// `ORDER BY` bound: keep only the best `offset + limit` rows.
    pub topk: Option<usize>,
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
/// aggregates, subqueries, >64 tables).
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
            Expr::Literal(_) | Expr::Param(_) => true,
            Expr::Neg(i) | Expr::Not(i) => walk(i, bindings, mask),
            Expr::Binary { lhs, rhs, .. } => walk(lhs, bindings, mask) && walk(rhs, bindings, mask),
            Expr::Like { expr, pattern, .. } => {
                walk(expr, bindings, mask) && walk(pattern, bindings, mask)
            }
            Expr::IsNull { expr, .. } => walk(expr, bindings, mask),
            Expr::InList { expr, list, .. } => {
                walk(expr, bindings, mask) && list.iter().all(|e| walk(e, bindings, mask))
            }
            Expr::Between { expr, lo, hi, .. } => {
                walk(expr, bindings, mask) && walk(lo, bindings, mask) && walk(hi, bindings, mask)
            }
            Expr::Func { args, .. } => args.iter().all(|a| walk(a, bindings, mask)),
            Expr::Case {
                operand,
                arms,
                otherwise,
            } => {
                operand.as_ref().is_none_or(|o| walk(o, bindings, mask))
                    && arms
                        .iter()
                        .all(|(w, t)| walk(w, bindings, mask) && walk(t, bindings, mask))
                    && otherwise.as_ref().is_none_or(|e| walk(e, bindings, mask))
            }
            Expr::Cast { expr, .. } => walk(expr, bindings, mask),
            // Aggregates need group context; subqueries should have been
            // rewritten away; windows see the whole row set — in all cases
            // refuse to classify.
            Expr::Agg { .. }
            | Expr::Subquery(_)
            | Expr::InSelect { .. }
            | Expr::Exists { .. }
            | Expr::Window(_) => false,
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

/// Classify every ON and WHERE conjunct of `sel` and pick join strategies.
///
/// `bindings` must be the full FROM-clause scope (base + all joins).
pub(crate) fn plan_select<'a>(
    sel: &'a Select,
    bindings: &Bindings,
    opts: &PlanOptions,
) -> SelectPlan<'a> {
    let mut plan = SelectPlan {
        joins: sel.joins.iter().map(|_| JoinPlan::default()).collect(),
        ..SelectPlan::default()
    };
    plan.topk = if opts.topk && !sel.order_by.is_empty() {
        sel.limit.map(|l| l.saturating_add(sel.offset.unwrap_or(0)))
    } else {
        None
    };

    let mut where_conjs = Vec::new();
    if let Some(w) = &sel.where_clause {
        flatten_and(w, &mut where_conjs);
    }
    if sel.from.is_none() {
        plan.residual = where_conjs;
        return plan;
    }

    // ON conjuncts, per join.
    for (j, join) in sel.joins.iter().enumerate() {
        let right_bit = 1u64 << (j + 1).min(63);
        let left_bits = right_bit - 1;
        let mut on_conjs = Vec::new();
        if let Some(on) = &join.on {
            flatten_and(on, &mut on_conjs);
        }
        let jp = &mut plan.joins[j];
        for conj in on_conjs {
            match conjunct_mask(conj, bindings) {
                // References a table not yet bound at this join (or is
                // unclassifiable): evaluate per pair, like the old executor.
                Some(m) if m & !(left_bits | right_bit) != 0 => jp.residual.push(conj),
                None => jp.residual.push(conj),
                // Right-table-only: filter the joined table's scan. Sound
                // even for LEFT OUTER — a right row failing ON can never
                // match, so removing it early only changes when the left row
                // gets NULL-padded, not whether.
                Some(m) if m != 0 && m & !right_bit == 0 => {
                    if opts.pushdown {
                        jp.scan.filters.push(conj);
                    } else {
                        jp.residual.push(conj);
                    }
                }
                // Left-only or constant: for an inner join, filter the left
                // side once instead of per pair. For LEFT OUTER a failing
                // left row must still survive NULL-padded, so it stays a
                // per-pair residual.
                Some(m) if m & right_bit == 0 => {
                    if m != 0 && opts.pushdown && !join.left_outer {
                        jp.left_filters.push(conj);
                    } else {
                        jp.residual.push(conj);
                    }
                }
                // Spans both sides: an equi conjunct becomes a hash key.
                Some(_) => {
                    if opts.hash_join {
                        if let Some(pair) = split_equi(conj, bindings, left_bits, right_bit) {
                            jp.keys.push(pair);
                            continue;
                        }
                    }
                    jp.residual.push(conj);
                }
            }
        }
        jp.use_hash = opts.hash_join && !jp.keys.is_empty();
    }

    // WHERE conjuncts.
    for conj in where_conjs {
        if !opts.pushdown {
            plan.residual.push(conj);
            continue;
        }
        match conjunct_mask(conj, bindings) {
            Some(1) => {
                plan.base.filters.push(conj);
                plan.pushed_where += 1;
            }
            Some(m) if m != 0 && m.count_ones() == 1 => {
                let j = m.trailing_zeros() as usize - 1;
                if sel.joins[j].left_outer {
                    // A predicate over the nullable side must see the
                    // NULL-padded rows (think `b.x IS NULL`): apply it right
                    // after the join, never below it.
                    plan.joins[j].post_filters.push(conj);
                } else {
                    plan.joins[j].scan.filters.push(conj);
                }
                plan.pushed_where += 1;
            }
            Some(m) if m != 0 => {
                // Multi-table: anchor at the last join it references.
                let t_max = 63 - m.leading_zeros() as usize;
                let j = t_max - 1;
                if opts.hash_join && !sel.joins[j].left_outer {
                    let right_bit = 1u64 << t_max;
                    if let Some(pair) = split_equi(conj, bindings, right_bit - 1, right_bit) {
                        plan.joins[j].keys.push(pair);
                        plan.joins[j].use_hash = true;
                        plan.pushed_where += 1;
                        continue;
                    }
                }
                plan.joins[j].post_filters.push(conj);
                plan.pushed_where += 1;
            }
            // Constants and unclassifiable conjuncts: evaluate at the tail.
            _ => plan.residual.push(conj),
        }
    }
    plan
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
        let plan = plan_select(&sel, &b, &PlanOptions::default());
        assert_eq!(plan.joins[0].keys.len(), 1);
        assert!(plan.joins[0].use_hash);
        assert_eq!(plan.joins[0].scan.filters.len(), 2); // b.z > 2, b.z < 100
        assert_eq!(plan.joins[0].left_filters.len(), 1); // a.y < 9
        assert_eq!(plan.joins[0].post_filters.len(), 1); // a.x + b.z = 5 (non-equi)
        assert_eq!(plan.base.filters.len(), 1); // a.y = 1
        assert!(plan.residual.is_empty());
        assert_eq!(plan.pushed_where, 3);
    }

    #[test]
    fn left_outer_blocks_pushdown_of_nullable_side() {
        let b = two_table_bindings();
        let sel = select("SELECT * FROM a LEFT JOIN b ON a.x = b.x AND a.y = 1 WHERE b.z IS NULL");
        let plan = plan_select(&sel, &b, &PlanOptions::default());
        // The WHERE predicate over the nullable side becomes a post-filter.
        assert!(plan.joins[0].scan.filters.is_empty());
        assert_eq!(plan.joins[0].post_filters.len(), 1);
        // The left-only ON conjunct stays residual for LEFT OUTER.
        assert!(plan.joins[0].left_filters.is_empty());
        assert_eq!(plan.joins[0].residual.len(), 1);
        assert_eq!(plan.joins[0].keys.len(), 1);
    }

    #[test]
    fn baseline_plan_keeps_everything_residual() {
        let b = two_table_bindings();
        let sel = select("SELECT * FROM a JOIN b ON a.x = b.x WHERE a.y = 1");
        let plan = plan_select(&sel, &b, &PlanOptions::baseline());
        assert!(!plan.joins[0].use_hash);
        assert!(plan.joins[0].keys.is_empty());
        assert_eq!(plan.joins[0].residual.len(), 1);
        assert_eq!(plan.residual.len(), 1);
        assert_eq!(plan.pushed_where, 0);
    }

    #[test]
    fn where_equi_conjunct_becomes_hash_key_for_inner_join() {
        let b = two_table_bindings();
        let sel = select("SELECT * FROM a JOIN b WHERE a.x = b.x");
        let plan = plan_select(&sel, &b, &PlanOptions::default());
        assert!(plan.joins[0].use_hash);
        assert_eq!(plan.joins[0].keys.len(), 1);
        assert!(plan.residual.is_empty());
    }

    #[test]
    fn topk_bound_includes_offset() {
        let b = Bindings::single("a", vec!["x".into()]);
        let sel = select("SELECT x FROM a ORDER BY x LIMIT 10 OFFSET 5");
        let plan = plan_select(&sel, &b, &PlanOptions::default());
        assert_eq!(plan.topk, Some(15));
        let plan = plan_select(&sel, &b, &PlanOptions::baseline());
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
