//! E11 — query-executor plan payoff.
//!
//! Measures the planner's single-table optimizations head-to-head against
//! the baseline executor ([`PlanOptions::baseline`]: full scans, full
//! sorts), running `exec::run_select_with_options` directly against a state
//! snapshot so the result cache cannot serve either side.
//!
//! Reported (no floor): top-k vs full sort at `ORDER BY … LIMIT 10`, and
//! set-operation throughput — UNION ALL and EXCEPT ALL ride the same release
//! gate so a quadratic regression in either shows up in the committed JSON.
//! A SELECT reads one table or none, so the join rows and their floors are
//! gone.

use dbgw_obs::RequestCtx;
use dbgw_testkit::bench::Suite;
use dbgw_testkit::rng::Rng;
use minisql::ast::Statement;
use minisql::exec::run_select_with_options;
use minisql::state::DbState;
use minisql::{Database, PlanOptions, Value};
use std::hint::black_box;
use std::time::Instant;

/// `cust` (id, region) and `ords` (cust_id, amount), `n` rows each.
fn shop_db(n: usize) -> DbState {
    let db = Database::new();
    db.run_script(
        "CREATE TABLE cust (id INTEGER, region INTEGER);
         CREATE TABLE ords (cust_id INTEGER, amount INTEGER)",
    )
    .unwrap();
    let mut rng = Rng::new(0x1996_0206);
    let mut conn = db.connect();
    for i in 0..n {
        conn.execute_with_params(
            "INSERT INTO cust VALUES (?, ?)",
            &[
                Value::Int(i as i64),
                Value::Int((rng.next_u64() % 8) as i64),
            ],
        )
        .unwrap();
    }
    for _ in 0..n {
        conn.execute_with_params(
            "INSERT INTO ords VALUES (?, ?)",
            &[
                Value::Int((rng.next_u64() % n as u64) as i64),
                Value::Int((rng.next_u64() % 500) as i64),
            ],
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
    let n = if quick { 200 } else { 1_000 };
    let st = shop_db(n);
    let all = PlanOptions::default();
    let iters = if quick { 10 } else { 40 };

    let mut suite = Suite::new("exec_plan");
    suite.record_metric("exec_rows_per_table", n as f64);

    // 1. Top-k ORDER BY … LIMIT 10 vs a full sort of the table.
    let topk_sql = "SELECT amount FROM ords ORDER BY amount DESC LIMIT 10";
    let topk_on = time_per_exec(&st, topk_sql, &all, iters);
    let topk_off = time_per_exec(&st, topk_sql, &PlanOptions { topk: false, ..all }, iters);
    suite.record_metric("exec_topk_ns", topk_on);
    suite.record_metric("exec_full_sort_ns", topk_off);
    suite.record_metric("exec_topk_speedup", topk_off / topk_on);

    // 2. Set-operation throughput (no floor): UNION ALL and EXCEPT ALL over
    //    the two n-row tables.
    for (metric, sql) in [
        (
            "exec_union_all_ns",
            "SELECT cust_id, amount FROM ords UNION ALL SELECT id, region FROM cust",
        ),
        (
            "exec_except_all_ns",
            "SELECT cust_id FROM ords EXCEPT ALL SELECT id FROM cust",
        ),
    ] {
        let ns = time_per_exec(&st, sql, &all, if quick { 10 } else { 30 });
        suite.record_metric(metric, ns);
    }

    suite.finish();
    println!(
        "# exec_plan: top-k {:.1}x over a full sort at n={n}",
        topk_off / topk_on
    );
}
