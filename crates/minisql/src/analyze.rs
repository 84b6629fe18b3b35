//! EXPLAIN ANALYZE: per-operator runtime instrumentation.
//!
//! `EXPLAIN` describes what the planner *intends*; `EXPLAIN ANALYZE` runs the
//! statement and reports what actually happened — rows in and out of every
//! operator, how many times it ran, and its wall time. The executor stays
//! uninstrumented by default: a statement only pays for collection when a
//! `Collector` is installed on its thread (by `EXPLAIN ANALYZE` itself, by
//! `DBGW_TRACE=1` request tracing, or by the gateway's slow-query log via
//! [`set_passive_capture`]).
//!
//! Time is read from the request's injectable [`Clock`], so a test pinning a
//! `TestClock` at the HTTP edge sees fully deterministic operator timings.
//!
//! Operators are keyed by [`OpId`], whose variants correspond one-to-one with
//! the line positions `exec::explain_into` renders — which is what lets the
//! renderer annotate the *estimated* plan tree with the *actual* numbers.
//! Only the outermost SELECT block records: subqueries and set-operation
//! branches run at collector depth ≥ 2 and are ignored, because their
//! operator ids would collide with the outer block's.

use dbgw_obs::Clock;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Identity of one operator within a single SELECT block. Variants map onto
/// the deterministic line order of the EXPLAIN tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpId {
    /// Base table access (index probe or full scan).
    Base,
    /// Scan of the `i`-th join's right side.
    JoinScan(usize),
    /// The `i`-th JOIN (hash or nested loop), including its post-filters.
    Join(usize),
    /// Residual WHERE filter (conjuncts the planner did not push down).
    WhereFilter,
    /// Window function computation (partition + in-partition sort).
    Window,
    /// Grouping and aggregate computation.
    Aggregate,
    /// HAVING filter, evaluated once per group.
    Having,
    /// DISTINCT over output rows.
    Distinct,
    /// ORDER BY (full or top-k sort).
    Sort,
    /// LIMIT / OFFSET.
    Limit,
}

impl OpId {
    /// Short label used in trace notes and slow-query plan summaries.
    pub fn label(&self) -> String {
        match self {
            OpId::Base => "scan".to_owned(),
            OpId::JoinScan(i) => format!("scan#{i}"),
            OpId::Join(i) => format!("join#{i}"),
            OpId::WhereFilter => "where".to_owned(),
            OpId::Window => "window".to_owned(),
            OpId::Aggregate => "agg".to_owned(),
            OpId::Having => "having".to_owned(),
            OpId::Distinct => "distinct".to_owned(),
            OpId::Sort => "sort".to_owned(),
            OpId::Limit => "limit".to_owned(),
        }
    }
}

/// Actuals accumulated for one operator over a statement's execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpActuals {
    /// Rows entering the operator (for scans: heap rows examined).
    pub rows_in: u64,
    /// Rows leaving the operator.
    pub rows_out: u64,
    /// Times the operator ran.
    pub loops: u64,
    /// Wall time, nanoseconds on the collector's clock.
    pub time_ns: u64,
}

struct Collector {
    clock: Arc<dyn Clock>,
    /// SELECT-block nesting depth: 1 = the outer block (recorded); deeper
    /// blocks (subqueries, set-operation branches) are ignored.
    depth: usize,
    ops: Vec<(OpId, OpActuals)>,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
    static LAST_SUMMARY: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Process-wide switch: when on, `Connection::execute_with_params` collects
/// actuals for every SELECT even without `EXPLAIN ANALYZE` or an active
/// trace, so the slow-query log can attach a plan summary after the fact.
/// The gateway enables this when `DBGW_SLOW_MS` is configured.
static PASSIVE: AtomicBool = AtomicBool::new(false);

/// Enable or disable passive per-statement collection (see `PASSIVE`'s
/// docs). Monotonic enablement is the expected pattern; toggling it off
/// mid-flight only stops *future* statements from collecting.
pub fn set_passive_capture(on: bool) {
    PASSIVE.store(on, Ordering::Relaxed);
}

/// Is passive per-statement collection enabled?
pub fn passive_capture() -> bool {
    PASSIVE.load(Ordering::Relaxed)
}

/// Should the statement path wrap this SELECT in a collector? True when the
/// thread is tracing (`DBGW_TRACE`) or passive capture is on.
pub(crate) fn capture_wanted() -> bool {
    passive_capture() || dbgw_obs::trace::trace_active()
}

/// Run `f` with a fresh collector installed on this thread, returning its
/// result plus the per-operator actuals recorded by the outermost SELECT
/// block. Re-entrant calls (a collector is already installed) run `f`
/// without a new collector and return no actuals.
pub fn collect<R>(clock: Arc<dyn Clock>, f: impl FnOnce() -> R) -> (R, Vec<(OpId, OpActuals)>) {
    let installed = COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        if slot.is_some() {
            return false;
        }
        *slot = Some(Collector {
            clock,
            depth: 0,
            ops: Vec::new(),
        });
        true
    });
    let result = f();
    if !installed {
        return (result, Vec::new());
    }
    let ops = COLLECTOR
        .with(|c| c.borrow_mut().take())
        .map(|col| col.ops)
        .unwrap_or_default();
    (result, ops)
}

/// RAII marker for one SELECT block; created at the top of `run_single` and
/// `run_compound` so nested blocks land at depth ≥ 2 and stay unrecorded.
pub(crate) struct BlockGuard {
    active: bool,
}

pub(crate) fn enter_block() -> BlockGuard {
    let active = COLLECTOR.with(|c| match c.borrow_mut().as_mut() {
        Some(col) => {
            col.depth += 1;
            true
        }
        None => false,
    });
    BlockGuard { active }
}

impl Drop for BlockGuard {
    fn drop(&mut self) {
        if self.active {
            COLLECTOR.with(|c| {
                if let Some(col) = c.borrow_mut().as_mut() {
                    col.depth = col.depth.saturating_sub(1);
                }
            });
        }
    }
}

/// A clock reading, if the outermost block is being recorded — the start of
/// one operator execution. `None` (collection off) makes the matching
/// [`record`] a no-op, so instrumented sites cost one thread-local read when
/// ANALYZE is inactive.
pub(crate) fn start() -> Option<u64> {
    COLLECTOR.with(|c| {
        c.borrow()
            .as_ref()
            .filter(|col| col.depth == 1)
            .map(|col| col.clock.now_ns())
    })
}

/// Fold one operator execution into the collector: `started` is the matching
/// [`start`] reading; rows flow `rows_in` → `rows_out`.
pub(crate) fn record(op: OpId, started: Option<u64>, rows_in: u64, rows_out: u64) {
    let Some(t0) = started else { return };
    COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(col) = slot.as_mut() else { return };
        if col.depth != 1 {
            return;
        }
        let elapsed = col.clock.now_ns().saturating_sub(t0);
        let actuals = match col.ops.iter_mut().find(|(o, _)| *o == op) {
            Some((_, a)) => a,
            None => {
                col.ops.push((op, OpActuals::default()));
                &mut col.ops.last_mut().expect("just pushed").1
            }
        };
        actuals.rows_in += rows_in;
        actuals.rows_out += rows_out;
        actuals.loops += 1;
        actuals.time_ns += elapsed;
    });
}

/// Look up one operator's actuals in a collected set.
pub fn lookup(ops: &[(OpId, OpActuals)], op: OpId) -> Option<OpActuals> {
    ops.iter().find(|(o, _)| *o == op).map(|(_, a)| *a)
}

/// One-line compact summary of a collected set, for the `DBGW_TRACE`
/// `plan_actuals` note and the slow-query log:
/// `scan 5→3 x1 0.010ms; join#0 3→7 x1 0.021ms; total 0.055ms`.
pub fn summarize(ops: &[(OpId, OpActuals)], total_ns: u64) -> String {
    let mut parts: Vec<String> = ops
        .iter()
        .map(|(op, a)| {
            format!(
                "{} {}\u{2192}{} x{} {:.3}ms",
                op.label(),
                a.rows_in,
                a.rows_out,
                a.loops,
                a.time_ns as f64 / 1e6
            )
        })
        .collect();
    parts.push(format!("total {:.3}ms", total_ns as f64 / 1e6));
    parts.join("; ")
}

/// Stash the plan summary of the statement that just finished, for the
/// slow-query log to pick up ([`take_last_summary`]).
pub fn set_last_summary(summary: String) {
    LAST_SUMMARY.with(|s| *s.borrow_mut() = Some(summary));
}

/// Take (and clear) the last statement's plan summary on this thread.
pub fn take_last_summary() -> Option<String> {
    LAST_SUMMARY.with(|s| s.borrow_mut().take())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgw_obs::TestClock;

    #[test]
    fn collect_records_outer_block_only() {
        let clock = Arc::new(TestClock::new());
        let c2 = Arc::clone(&clock);
        let ((), ops) = collect(clock, move || {
            let _outer = enter_block();
            let t = start();
            c2.advance_micros(5);
            record(OpId::Base, t, 10, 3);
            {
                // A nested block (subquery): must not record.
                let _inner = enter_block();
                let t = start();
                assert!(t.is_none(), "nested block must not time");
                record(OpId::Base, t, 99, 99);
            }
            // Same op again accumulates (loops).
            let t = start();
            c2.advance_micros(3);
            record(OpId::Base, t, 10, 2);
        });
        let base = lookup(&ops, OpId::Base).unwrap();
        assert_eq!(base.rows_in, 20);
        assert_eq!(base.rows_out, 5);
        assert_eq!(base.loops, 2);
        assert_eq!(base.time_ns, 8_000);
        assert!(lookup(&ops, OpId::Sort).is_none());
    }

    #[test]
    fn no_collector_means_no_ops_and_no_cost() {
        let _block = enter_block();
        assert!(start().is_none());
        record(OpId::Sort, None, 1, 1); // no-op
        assert!(take_last_summary().is_none());
    }

    #[test]
    fn reentrant_collect_leaves_outer_collector_intact() {
        let clock: Arc<dyn Clock> = Arc::new(TestClock::new());
        let inner_clock = Arc::clone(&clock);
        let ((), ops) = collect(Arc::clone(&clock), move || {
            let _outer = enter_block();
            let ((), inner_ops) = collect(inner_clock, || {});
            assert!(inner_ops.is_empty());
            let t = start();
            record(OpId::Limit, t, 4, 2);
        });
        assert_eq!(lookup(&ops, OpId::Limit).unwrap().rows_out, 2);
    }

    #[test]
    fn summary_formats_rows_loops_and_total() {
        let ops = vec![
            (
                OpId::Base,
                OpActuals {
                    rows_in: 5,
                    rows_out: 3,
                    loops: 1,
                    time_ns: 10_000,
                },
            ),
            (
                OpId::Join(0),
                OpActuals {
                    rows_in: 3,
                    rows_out: 7,
                    loops: 1,
                    time_ns: 21_000,
                },
            ),
        ];
        let s = summarize(&ops, 55_000);
        assert_eq!(
            s,
            "scan 5\u{2192}3 x1 0.010ms; join#0 3\u{2192}7 x1 0.021ms; total 0.055ms"
        );
        set_last_summary(s.clone());
        assert_eq!(take_last_summary().as_deref(), Some(s.as_str()));
        assert!(take_last_summary().is_none());
    }
}
