//! E15 — cost-based join ordering payoff.
//!
//! Measures the statistics-driven join reordering against the same plan with
//! reordering disabled, on a three-table workload built to punish the
//! syntactic order: the query joins a 10-row dimension table last, so the
//! syntactic plan materializes a ~n²/k-row intermediate before shrinking,
//! while the cost-based order starts from the dimension table and never
//! holds more than a few dozen intermediate rows.
//!
//! Acceptance floor, asserted here so a planner regression fails the run:
//!
//! 1. **Stats-ordered 3-way join ≥ 5× the syntactic order**
//!    (`planner_reorder_speedup`).
//!
//! Also reported (no floor): set-operation throughput — UNION ALL and
//! EXCEPT ALL ride the same release gate so a quadratic regression in either
//! shows up in the committed JSON.
//!
//! The bench also prints the EXPLAIN of the reordered query; CI greps the
//! output for the chosen `JOIN ORDER:` line as an end-to-end smoke that the
//! printed plan is the cost model's, not the syntactic one.

use dbgw_obs::RequestCtx;
use dbgw_testkit::bench::Suite;
use dbgw_testkit::rng::Rng;
use minisql::ast::Statement;
use minisql::exec::{explain_select, run_select_with_options};
use minisql::state::DbState;
use minisql::{Database, PlanOptions, Value};
use std::hint::black_box;
use std::time::Instant;

/// `a` (n rows, k ∈ 0..fanout), `b` (n rows, unique id, k ∈ 0..fanout), and
/// `c` (10 rows referencing distinct b.id values). The syntactic order
/// `a ⋈ b ⋈ c` peaks at n²/fanout intermediate rows; starting from `c`
/// peaks at ~10.
fn star_db(n: usize, fanout: u64) -> DbState {
    let db = Database::new();
    db.run_script(
        "CREATE TABLE a (k INTEGER, v INTEGER);
         CREATE TABLE b (id INTEGER, k INTEGER);
         CREATE TABLE c (b_id INTEGER, v INTEGER)",
    )
    .unwrap();
    let mut rng = Rng::new(0x1996_0615);
    let mut conn = db.connect();
    for i in 0..n {
        conn.execute_with_params(
            "INSERT INTO a VALUES (?, ?)",
            &[
                Value::Int((rng.next_u64() % fanout) as i64),
                Value::Int(i as i64),
            ],
        )
        .unwrap();
        conn.execute_with_params(
            "INSERT INTO b VALUES (?, ?)",
            &[Value::Int(i as i64), Value::Int((i as u64 % fanout) as i64)],
        )
        .unwrap();
    }
    for i in 0..10 {
        conn.execute_with_params(
            "INSERT INTO c VALUES (?, ?)",
            &[Value::Int(i), Value::Int(i * 100)],
        )
        .unwrap();
    }
    db.snapshot()
}

fn parse_select(sql: &str) -> minisql::ast::Select {
    match minisql::parse(sql).unwrap() {
        Statement::Select(s) => s,
        _ => panic!("not a select: {sql}"),
    }
}

/// Mean nanoseconds per execution of `sql` under `opts`.
fn time_per_exec(state: &DbState, sql: &str, opts: &PlanOptions, iters: u32) -> f64 {
    let sel = parse_select(sql);
    let ctx = RequestCtx::unbounded();
    let start = Instant::now();
    for _ in 0..iters {
        let rows = run_select_with_options(state, black_box(&sel), &[], &ctx, opts).unwrap();
        black_box(rows);
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok();
    let (n, fanout) = if quick { (300, 6) } else { (1_000, 10) };
    let st = star_db(n, fanout);
    let reordered = PlanOptions::default();
    let syntactic = PlanOptions {
        reorder: false,
        ..PlanOptions::default()
    };

    let mut suite = Suite::new("planner");

    // 1. The headline: the dimension table is written last; only the cost
    //    model can move it first. Both sides use hash joins — the entire
    //    difference is join order.
    let star_sql = "SELECT a.v, b.id, c.v FROM a \
                    JOIN b ON a.k = b.k JOIN c ON b.id = c.b_id";
    let ordered_ns = time_per_exec(&st, star_sql, &reordered, if quick { 20 } else { 50 });
    let syntactic_ns = time_per_exec(&st, star_sql, &syntactic, if quick { 5 } else { 10 });
    let speedup = syntactic_ns / ordered_ns;
    suite.record_metric("planner_join_rows_per_side", n as f64);
    suite.record_metric("planner_reordered_ns", ordered_ns);
    suite.record_metric("planner_syntactic_ns", syntactic_ns);
    suite.record_metric("planner_reorder_speedup", speedup);
    assert!(
        speedup >= 5.0,
        "stats-driven join order must be at least 5x the syntactic order at n={n} \
         (ordered {ordered_ns:.0} ns, syntactic {syntactic_ns:.0} ns, {speedup:.1}x)"
    );

    // EXPLAIN smoke: the printed plan must carry the cost model's order
    // (dimension table first) and its row estimates. CI greps this output.
    let plan = explain_select(&st, &parse_select(star_sql), &[]).unwrap();
    for line in &plan {
        println!("# planner explain: {line}");
    }
    let order = plan
        .iter()
        .find(|l| l.contains("JOIN ORDER:"))
        .expect("reordered plan prints its join order");
    assert!(
        order.contains("JOIN ORDER: c -> b -> a"),
        "cost model must start from the 10-row dimension table: {order}"
    );
    assert!(
        plan.iter().any(|l| l.contains("est rows=")),
        "plan lines must carry cost estimates"
    );

    // 2. Set-operation throughput (no floor): UNION ALL and EXCEPT ALL over
    //    the two n-row tables.
    for (metric, sql) in [
        (
            "planner_union_all_ns",
            "SELECT k, v FROM a UNION ALL SELECT id, k FROM b",
        ),
        (
            "planner_except_all_ns",
            "SELECT k FROM a EXCEPT ALL SELECT k FROM b",
        ),
    ] {
        let ns = time_per_exec(&st, sql, &reordered, if quick { 10 } else { 30 });
        suite.record_metric(metric, ns);
    }

    suite.finish();
    println!("# planner: stats-driven order {speedup:.1}x over syntactic at n={n}");
}
